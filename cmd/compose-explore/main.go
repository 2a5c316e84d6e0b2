// Command compose-explore runs the paper's experiments and prints each
// table/figure as text: -experiment names one (sec3, fig2, fig5, …, see
// -help for the list) or all, which runs them in paper order.
//
// Robustness controls:
//
//	-timeout     bounds the whole run; on expiry the run stops with a
//	             saved checkpoint instead of hanging.
//	-checkpoint  persists the profile sets, the evaluated design points
//	             (re-scored from the profiles on resume) and the search
//	             frontier; an interrupted run resumes from where it
//	             stopped. A corrupt file is quarantined to <path>.corrupt
//	             and the run starts cold (-checkpoint-strict fails instead).
//	-store       crash-safe append-only profile store: each profile set is
//	             written through as it completes (durable mid-run, not only
//	             at checkpoint boundaries) and reloaded at startup.
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
	"strings"
	"syscall"
	"time"

	"compisa/internal/explore"
	"compisa/internal/fault"
)

func main() {
	exp := flag.String("experiment", "all", "experiment to run ("+strings.Join(explore.ExperimentNames(), ", ")+", or all)")
	timeout := flag.Duration("timeout", 0, "abort the run after this duration (0 = no limit)")
	checkpoint := flag.String("checkpoint", "", "checkpoint file: resume from it if present, save to it as searches complete")
	checkpointStrict := flag.Bool("checkpoint-strict", false, "fail on a corrupt checkpoint instead of quarantining it and starting cold")
	storePath := flag.String("store", "", "crash-safe profile store: reload profile sets from it, write each through as it completes")
	injectRate := flag.Float64("inject-rate", 0, "fault injection rate in [0,1] (0 = no injection)")
	injectSeed := flag.Uint64("inject-seed", 1, "fault injection seed (same seed => same faults)")
	injectKinds := flag.String("inject-kinds", "", "comma-separated fault kinds to inject (compile,runaway,corrupt,slow,badcode); empty = all default kinds")
	injectTransient := flag.Float64("inject-transient", 0, "fraction of injected faults that clear on the first retry")
	stats := flag.Bool("stats", false, "print evaluation pipeline statistics (stage counts, timings, cache hit rates) on exit")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file at normal exit")
	flag.Parse()

	log.SetFlags(0)
	start := time.Now()
	exps, err := explore.SelectExperiments(*exp)
	if err != nil {
		log.Fatal(err)
	}

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
	db.Log = log.Printf
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

	// The checkpoint is saved after every search and experiment, and once
	// more however the run ends; the store writes profile sets through.
	err = explore.RunDurable(db, explore.Durability{
		Checkpoint: *checkpoint, Strict: *checkpointStrict, Store: *storePath,
	}, func(d *explore.Durable) error {
		db.Persist = d.Persist
		s, err := explore.NewSearcher(ctx, db)
		if err != nil {
			return err
		}
		d.Resume(s)
		sess := &explore.Session{S: s}
		for _, e := range exps {
			t0 := time.Now()
			if err := e.Run(ctx, sess, os.Stdout); err != nil {
				report()
				if ctx.Err() != nil {
					return fmt.Errorf("%s: interrupted (%w); checkpoint saved, rerun to resume", e.Name, err)
				}
				return fmt.Errorf("%s: %w", e.Name, err)
			}
			d.Save()
			fmt.Fprintf(os.Stderr, "[%s done in %v]\n", e.Name, time.Since(t0).Round(time.Millisecond))
		}
		report()
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
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
