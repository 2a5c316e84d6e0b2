// Command compose-explore runs the paper's experiments and prints each
// table/figure as text. Experiments: sec3, fig2, fig5, fig6, fig7, fig8,
// table3, table4, fig9, fig10, fig11, fig12, fig13, fig14, fig15, or all.
//
// Robustness controls:
//
//	-timeout     bounds the whole run; on expiry the run stops with a
//	             saved checkpoint instead of hanging.
//	-checkpoint  persists the profile cache and search frontier; an
//	             interrupted run resumes from where it stopped. A corrupt
//	             file is quarantined to <path>.corrupt and the run starts
//	             cold (-checkpoint-strict fails instead).
//	-store       crash-safe append-only candidate store: evaluations are
//	             written through as they complete (durable mid-run, not
//	             only at checkpoint boundaries) and reloaded at startup.
//	-inject-*    deterministically inject evaluation faults to exercise
//	             the retry/quarantine machinery.
//	-stats       print evaluation-pipeline statistics on exit: per-stage
//	             counts and timings plus cache hit rates per tier.
//	-cpuprofile  write a CPU profile for the whole run (pprof format).
//	-memprofile  write a heap profile at normal exit (after a final GC).
//
// Failing (region, ISA) pairs are quarantined and scored at a documented
// penalty; the run completes and the coverage summary reports them.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"compisa/internal/eval"
	"compisa/internal/explore"
	"compisa/internal/fault"
	"compisa/internal/store"
)

func main() {
	exp := flag.String("experiment", "all", "experiment to run (sec3, fig2, fig5..fig15, table3, table4, all)")
	timeout := flag.Duration("timeout", 0, "abort the run after this duration (0 = no limit)")
	checkpoint := flag.String("checkpoint", "", "checkpoint file: resume from it if present, save to it as searches complete")
	checkpointStrict := flag.Bool("checkpoint-strict", false, "fail on a corrupt checkpoint instead of quarantining it and starting cold")
	storePath := flag.String("store", "", "crash-safe candidate store: reload from it, write evaluations through as they complete")
	storeSyncEvery := flag.Int("store-sync-every", 1, "group-commit boundary: fsync the store every N appended records")
	injectRate := flag.Float64("inject-rate", 0, "fault injection rate in [0,1] (0 = no injection)")
	injectSeed := flag.Uint64("inject-seed", 1, "fault injection seed (same seed => same faults)")
	injectKinds := flag.String("inject-kinds", "", "comma-separated fault kinds to inject (compile,runaway,corrupt,slow,badcode); empty = all default kinds")
	injectTransient := flag.Float64("inject-transient", 0, "fraction of injected faults that clear on the first retry")
	stats := flag.Bool("stats", false, "print evaluation pipeline statistics (stage counts, timings, cache hit rates) on exit")
	verify := flag.Bool("verify", true, "statically verify every compiled region conforms to its feature set before execution")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file at normal exit")
	flag.Parse()

	log.SetFlags(0)
	start := time.Now()

	stopProfiles, err := startProfiles(*cpuprofile, *memprofile)
	if err != nil {
		log.Fatal(err)
	}
	// Profiles are finalized here, so they are only complete on a normal
	// exit (log.Fatal paths skip deferred calls).
	defer stopProfiles()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	db := explore.NewDB()
	db.Verify = *verify
	db.Log = func(format string, args ...any) { log.Printf(format, args...) }
	// Validate the kind list even when no rate is set, so a typoed
	// -inject-kinds fails loudly instead of being silently ignored.
	kinds, err := fault.ParseKinds(*injectKinds)
	if err != nil {
		log.Fatal(err)
	}
	if *injectRate > 0 {
		inj, err := fault.NewInjector(fault.Config{
			Seed: *injectSeed, Rate: *injectRate,
			Kinds: kinds, TransientFrac: *injectTransient,
		})
		if err != nil {
			log.Fatal(err)
		}
		db.Inject = inj
	}

	var cpState *explore.CheckpointState
	if *checkpoint != "" {
		var st *explore.CheckpointState
		var err error
		if *checkpointStrict {
			st, err = explore.LoadCheckpoint(*checkpoint)
		} else {
			var quarantined string
			st, quarantined, err = explore.RecoverCheckpoint(*checkpoint)
			if quarantined != "" {
				fmt.Fprintf(os.Stderr, "[corrupt checkpoint quarantined to %s; starting cold]\n", quarantined)
			}
		}
		if err != nil {
			log.Fatal(err)
		}
		if st != nil {
			st.RestoreDB(db)
			fmt.Fprintf(os.Stderr, "[resumed from %s: %d ISA profile sets, %d candidates, %d searches]\n",
				*checkpoint, len(st.Profiles), len(st.Candidates), len(st.Frontier))
		}
		cpState = st
	}

	// The durable candidate store is optional and advisory: if it cannot
	// open, the run proceeds memory-only (a checkpoint still captures
	// results). With the default -store-sync-every=1 every acknowledged
	// write is already fsynced, so skipping Close on a fatal exit loses
	// nothing.
	if *storePath != "" {
		cs, err := store.Open(*storePath, store.Options{
			SyncEvery: *storeSyncEvery,
			Log:       func(format string, args ...any) { log.Printf(format, args...) },
		})
		if err != nil {
			log.Printf("[store %s unavailable, running memory-only: %v]", *storePath, err)
		} else {
			defer cs.Close()
			adapter := &eval.CandidateStore{S: cs}
			loaded, skipped, lerr := adapter.LoadInto(db)
			if lerr != nil {
				log.Printf("[store warm-start: %v]", lerr)
			} else if loaded > 0 || skipped > 0 {
				fmt.Fprintf(os.Stderr, "[reloaded %d candidates from store %s (%d skipped)]\n",
					loaded, *storePath, skipped)
			}
			db.Persist = adapter
		}
	}

	s, err := explore.NewSearcher(ctx, db)
	if err != nil {
		log.Fatal(err)
	}
	cpState.RestoreSearcher(s)
	save := func() {
		if *checkpoint == "" {
			return
		}
		if err := explore.SaveCheckpoint(*checkpoint, explore.Snapshot(db, s)); err != nil {
			log.Printf("checkpoint: %v", err)
		}
	}
	s.OnSearchDone = save

	report := func() {
		if *stats {
			fmt.Fprint(os.Stderr, db.StatsSnapshot().Format())
		}
		cov := db.Coverage()
		if len(cov.Quarantined) == 0 && db.Inject == nil {
			return
		}
		fmt.Fprintf(os.Stderr, "[coverage: %s]\n", cov)
		for _, q := range cov.Quarantined {
			fmt.Fprintf(os.Stderr, "[quarantined %s on %s: %s]\n", q.Region, q.ISA, q.Reason)
		}
	}

	ran := false
	run := func(name string, fn func() error) {
		if *exp != "all" && *exp != name {
			return
		}
		ran = true
		t0 := time.Now()
		if err := fn(); err != nil {
			save()
			report()
			if ctx.Err() != nil {
				log.Fatalf("%s: interrupted (%v); checkpoint saved, rerun to resume", name, err)
			}
			log.Fatalf("%s: %v", name, err)
		}
		save()
		fmt.Fprintf(os.Stderr, "[%s done in %v]\n", name, time.Since(t0).Round(time.Millisecond))
	}

	run("sec3", func() error {
		d, err := explore.Sec3CodegenDeltas(ctx, db)
		if err != nil {
			return err
		}
		fmt.Println(d.Format())
		return nil
	})
	run("fig2", func() error {
		f, err := explore.Fig2InstructionMix(ctx, db)
		if err != nil {
			return err
		}
		fmt.Println(f.Format())
		return nil
	})
	run("fig5", func() error {
		budgets := append(append([]explore.Budget{}, explore.MPPowerBudgets...), explore.AreaBudgets...)
		r, err := s.Sweep(ctx, explore.ObjMPThroughput, budgets)
		if err != nil {
			return err
		}
		fmt.Println(r.Format("Figure 5: multi-programmed throughput (relative to homogeneous; higher is better)"))
		return nil
	})
	run("fig6", func() error {
		budgets := append(append([]explore.Budget{}, explore.MPPowerBudgets...), explore.AreaBudgets...)
		r, err := s.Sweep(ctx, explore.ObjMPEDP, budgets)
		if err != nil {
			return err
		}
		fmt.Println(r.Format("Figure 6: multi-programmed EDP (relative to homogeneous; lower is better)"))
		return nil
	})
	run("fig7", func() error {
		r, err := s.Sweep(ctx, explore.ObjSTPerf, explore.STPowerBudgets)
		if err != nil {
			return err
		}
		fmt.Println(r.Format("Figure 7a: single-thread performance under peak power budgets"))
		r2, err := s.Sweep(ctx, explore.ObjSTEDP, explore.STPowerBudgets)
		if err != nil {
			return err
		}
		fmt.Println(r2.Format("Figure 7b: single-thread EDP under peak power budgets (lower is better)"))
		return nil
	})
	run("fig8", func() error {
		r, err := s.Sweep(ctx, explore.ObjSTPerf, explore.AreaBudgets)
		if err != nil {
			return err
		}
		fmt.Println(r.Format("Figure 8a: single-thread performance under area budgets"))
		r2, err := s.Sweep(ctx, explore.ObjSTEDP, explore.AreaBudgets)
		if err != nil {
			return err
		}
		fmt.Println(r2.Format("Figure 8b: single-thread EDP under area budgets (lower is better)"))
		return nil
	})
	run("table3", func() error {
		t, err := s.OptimalDesignTable(ctx, explore.ObjMPThroughput, explore.MPPowerBudgets)
		if err != nil {
			return err
		}
		fmt.Println(t)
		return nil
	})
	run("table4", func() error {
		t, err := s.OptimalDesignTable(ctx, explore.ObjMPEDP, explore.MPPowerBudgets)
		if err != nil {
			return err
		}
		fmt.Println(t)
		return nil
	})
	var fig9 *explore.Fig9Result
	run("fig9", func() error {
		r, err := s.Fig9FeatureSensitivity(ctx)
		if err != nil {
			return err
		}
		fig9 = r
		fmt.Println(r.Format())
		return nil
	})
	run("fig10", func() error {
		if fig9 == nil {
			r, err := s.Fig9FeatureSensitivity(ctx)
			if err != nil {
				return err
			}
			fig9 = r
		}
		var rows []explore.StageBreakdown
		for _, row := range fig9.Rows {
			if row.CMP.Cores[0] == nil {
				continue
			}
			rows = append(rows, explore.AreaBreakdown(row.Constraint, row.CMP))
		}
		rows = append(rows, explore.AreaBreakdown("full diversity", fig9.Unconstrained))
		fmt.Println(explore.FormatBreakdowns(
			"Figure 10: transistor investment by processor area (normalized to full diversity, caches excluded)", rows))
		return nil
	})
	run("fig11", func() error {
		if fig9 == nil {
			r, err := s.Fig9FeatureSensitivity(ctx)
			if err != nil {
				return err
			}
			fig9 = r
		}
		var rows []explore.StageBreakdown
		for _, row := range fig9.Rows {
			if row.CMP.Cores[0] == nil {
				continue
			}
			b, err := explore.EnergyBreakdown(ctx, row.Constraint, row.CMP, db)
			if err != nil {
				return err
			}
			rows = append(rows, b)
		}
		b, err := explore.EnergyBreakdown(ctx, "full diversity", fig9.Unconstrained, db)
		if err != nil {
			return err
		}
		rows = append(rows, b)
		fmt.Println(explore.FormatBreakdowns(
			"Figure 11: processor energy breakdown (normalized to full diversity, caches excluded)", rows))
		return nil
	})
	run("fig12", func() error {
		a, err := s.Fig12AffinitySingleThread(ctx)
		if err != nil {
			return err
		}
		fmt.Println(a.Format())
		return nil
	})
	run("fig13", func() error {
		a, err := s.Fig13AffinityMultiprogrammed(ctx)
		if err != nil {
			return err
		}
		fmt.Println(a.Format())
		return nil
	})
	var fig14 *explore.Fig14Result
	run("fig14", func() error {
		r, err := explore.Fig14DowngradeCost(ctx, db)
		if err != nil {
			return err
		}
		fig14 = r
		fmt.Println(r.Format())
		return nil
	})
	run("fig15", func() error {
		if fig14 == nil {
			r, err := explore.Fig14DowngradeCost(ctx, db)
			if err != nil {
				return err
			}
			fig14 = r
		}
		r, err := s.Fig15MigrationOverhead(ctx, explore.Budget{AreaMM2: 48}, fig14)
		if err != nil {
			return err
		}
		fmt.Println(r.Format())
		return nil
	})
	if !ran {
		log.Fatalf("unknown experiment %q (want sec3, fig2, fig5..fig15, table3, table4, or all)", *exp)
	}
	save()
	report()
	fmt.Fprintf(os.Stderr, "[total %v]\n", time.Since(start).Round(time.Millisecond))
}

// startProfiles enables CPU and/or heap profiling per the -cpuprofile and
// -memprofile flags. The returned stop function flushes the CPU profile and
// captures the heap profile (after a final GC, so the snapshot reflects live
// objects rather than garbage awaiting collection).
func startProfiles(cpuPath, memPath string) (stop func(), err error) {
	var cpuF *os.File
	if cpuPath != "" {
		cpuF, err = os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuF); err != nil {
			cpuF.Close()
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
	}
	return func() {
		if cpuF != nil {
			pprof.StopCPUProfile()
			if err := cpuF.Close(); err != nil {
				log.Printf("cpuprofile: %v", err)
			}
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				log.Printf("memprofile: %v", err)
				return
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Printf("memprofile: %v", err)
			}
			if err := f.Close(); err != nil {
				log.Printf("memprofile: %v", err)
			}
		}
	}, nil
}
