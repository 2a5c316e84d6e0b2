package eval

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"

	"compisa/internal/code"
	"compisa/internal/compiler"
	"compisa/internal/cpu"
	"compisa/internal/fault"
	"compisa/internal/isa"
	"compisa/internal/mem"
	"compisa/internal/workload"
)

// compileCell builds and compiles one (region, ISA) cell the way
// profileOnce does, independently of the DB.
func compileCell(t *testing.T, r workload.Region, c ISAChoice) (*code.Program, *mem.Memory) {
	t.Helper()
	f, m, err := r.Build(c.FS.Width)
	if err != nil {
		t.Fatal(err)
	}
	opts := compiler.Options{Verify: compiler.VerifyOff}
	if c.Vendor != nil {
		opts.Target = c.Vendor.Target
	}
	prog, err := compiler.Compile(f, c.FS, opts)
	if err != nil {
		t.Fatal(err)
	}
	prog.Name = r.Name
	return prog, m
}

// cpf1 encodes a profile, failing the test on error.
func cpf1(t *testing.T, p *cpu.Profile) []byte {
	t.Helper()
	b, err := p.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// thumbTwins returns the backend-less Thumb vendor and the composite
// feature set it is x86-ized to: the two compile every region to the same
// program, so they share every simulation.
func thumbTwins(t *testing.T) (thumb, twin ISAChoice) {
	t.Helper()
	for _, c := range VendorChoices() {
		if c.Vendor.Name == isa.VendorThumb.Name {
			return c, ISAChoice{FS: c.FS}
		}
	}
	t.Fatal("no Thumb vendor choice")
	return
}

// TestSimTierSharedProfilesMatchOwnSimulation: two ISA choices profiled
// concurrently share simulations, and every cell's profile is byte for byte
// what a private simulation of that cell's own compiled program gives
// (vendor-adjusted for the backend-less vendor).
func TestSimTierSharedProfilesMatchOwnSimulation(t *testing.T) {
	thumb, twin := thumbTwins(t)
	choices := []ISAChoice{thumb, twin}
	db := smallDB(6, nil)
	ctx := context.Background()
	got := make([][]*cpu.Profile, len(choices))
	var wg sync.WaitGroup
	for i, c := range choices {
		wg.Add(1)
		go func(i int, c ISAChoice) {
			defer wg.Done()
			ps, err := db.Profiles(ctx, c)
			if err != nil {
				t.Error(err)
			}
			got[i] = ps
		}(i, c)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if db.Stats.SimHits.Load() == 0 {
		t.Fatal("no simulation was shared between ISA choices")
	}
	execs := db.Stats.Execs.Load()
	if misses := db.Stats.SimMisses.Load(); execs != misses {
		t.Errorf("Execs = %d, want one per simulation-tier miss (%d)", execs, misses)
	}
	// The profile stage is the profiler's share of every real run.
	exec, prof := db.Stats.ExecTime.Snapshot(), db.Stats.ProfileTime.Snapshot()
	if prof.Count != execs || prof.SumNS <= 0 || prof.SumNS > exec.SumNS {
		t.Errorf("profile stage %d runs, %v; want %d runs, positive and within exec's %v",
			prof.Count, prof.Sum(), execs, exec.Sum())
	}
	cells := int64(len(choices) * len(db.Regions))
	if n := db.Stats.SimHits.Load() + db.Stats.SimMisses.Load(); n != cells {
		t.Errorf("sim hits + misses = %d, want one per cell (%d)", n, cells)
	}
	for i, c := range choices {
		for ri, r := range db.Regions {
			prog, m := compileCell(t, r, c)
			want, _, err := cpu.CollectProfileOpts(prog, m, cpu.RunOptions{MaxInstrs: MaxRegionInstrs})
			if err != nil {
				t.Fatal(err)
			}
			if c.Vendor != nil && !c.Vendor.HasBackend() {
				want = vendorAdjust(want, c)
			}
			if !bytes.Equal(cpf1(t, got[i][ri]), cpf1(t, want)) {
				t.Errorf("%s on %s: shared profile differs from the cell's own simulation", r.Name, c.Key())
			}
		}
	}
}

// TestSimTierOverlay: a hit hands out the leader's own profile when the
// cell's name and compile statistics match, and otherwise a copy carrying
// the cell's own, leaving the shared profile untouched.
func TestSimTierOverlay(t *testing.T) {
	prog := simKeyBase()
	leader := &cpu.Profile{Name: prog.Name, Stats: prog.Stats, Instrs: 42}
	if overlay(leader, prog) != leader {
		t.Error("matching name and stats: want the shared pointer")
	}
	prog.Stats.Remats++
	q := overlay(leader, prog)
	if q == leader || q.Stats != prog.Stats || q.Name != prog.Name || q.Instrs != 42 {
		t.Errorf("differing stats: got %+v, want a copy with the cell's stats", q)
	}
	if leader.Stats == prog.Stats {
		t.Error("overlay modified the shared profile")
	}
}

// TestFaultSimTierBypass: an injected badcode, corrupt or runaway fault on
// a pair whose twin program is already in the simulation tier fails,
// retries and quarantines exactly as it does on a DB where nothing is
// cached: the faulted attempt never takes the shared profile. Runaway is
// the case only the bypass catches: it shrinks the instruction budget,
// which the key does not cover, while the other two change the program.
func TestFaultSimTierBypass(t *testing.T) {
	thumb, twin := thumbTwins(t)
	const n = 2
	regions := workload.Regions()[:n]
	for _, kind := range []fault.Kind{fault.KindBadCode, fault.KindCorrupt, fault.KindRunaway} {
		for _, transient := range []bool{false, true} {
			// Find a seed that leaves every twin pair clean and faults the
			// Thumb pair of region 0 with this kind and transience.
			var cfg fault.Config
			for seed := uint64(1); ; seed++ {
				if seed > 100000 {
					t.Fatalf("%v transient=%v: no suitable seed", kind, transient)
				}
				cfg = fault.Config{Seed: seed, Rate: 0.5, TransientFrac: 0.5, Kinds: []fault.Kind{kind}}
				in := injector(t, cfg)
				clean := true
				for _, r := range regions {
					clean = clean && in.Decide(pairKey(r.Name, twin.Key()), 0).Kind == fault.KindNone
				}
				d := in.Decide(pairKey(regions[0].Name, thumb.Key()), 0)
				if clean && d.Kind == kind && d.Transient == transient {
					break
				}
			}
			type outcome struct {
				profiles    [][]byte
				quarantined []QuarantinedPair
				retries     int64
				quarantines int64
			}
			run := func(warmTwin bool) outcome {
				db := smallDB(n, injector(t, cfg))
				ctx := context.Background()
				if warmTwin {
					if _, err := db.Profiles(ctx, twin); err != nil {
						t.Fatal(err)
					}
					if db.Stats.SimMisses.Load() != n {
						t.Fatalf("twin run: %d simulation misses, want %d", db.Stats.SimMisses.Load(), n)
					}
				}
				ps, err := db.Profiles(ctx, thumb)
				if err != nil {
					t.Fatalf("Profiles must degrade, not fail: %v", err)
				}
				var o outcome
				for _, p := range ps {
					if p == nil {
						o.profiles = append(o.profiles, nil)
						continue
					}
					o.profiles = append(o.profiles, cpf1(t, p))
				}
				o.quarantined = db.Coverage().Quarantined
				o.retries, o.quarantines = db.Stats.Retries.Load(), db.Stats.Quarantines.Load()
				return o
			}
			cold, warm := run(false), run(true)
			if q := cold.profiles[0] == nil; q == transient || (transient && cold.retries == 0) {
				t.Errorf("%v transient=%v: region 0 quarantined = %v after %d retries", kind, transient, q, cold.retries)
			}
			if warm.retries != cold.retries || warm.quarantines != cold.quarantines || len(warm.quarantined) != len(cold.quarantined) {
				t.Fatalf("%v transient=%v: warm twin changed fault handling: %d retries, %d quarantines; cold %d, %d",
					kind, transient, warm.retries, warm.quarantines, cold.retries, cold.quarantines)
			}
			for i := range cold.quarantined {
				if warm.quarantined[i] != cold.quarantined[i] {
					t.Errorf("%v: quarantine entry %+v, cold %+v", kind, warm.quarantined[i], cold.quarantined[i])
				}
			}
			for i := range cold.profiles {
				if !bytes.Equal(warm.profiles[i], cold.profiles[i]) {
					t.Errorf("%v transient=%v region %d: profile differs with a warm twin", kind, transient, i)
				}
			}
		}
	}
}

// TestFaultSimLeaderCanceled: a leader whose simulation is interrupted by
// its context leaves no cached error (the next caller simulates), a waiter
// whose own context is canceled returns ctx.Err(), and a waiter whose
// leader fails runs the simulation itself.
func TestFaultSimLeaderCanceled(t *testing.T) {
	db := smallDB(1, nil)
	r := db.Regions[0]
	prog, _ := compileCell(t, r, X8664Choice())
	w := prog.FS.Width
	key := simKeyOf(r.Name, w, prog)
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	ctx := context.Background()

	// The leader's run polls its canceled context on the first instruction.
	ropts := cpu.RunOptions{MaxInstrs: MaxRegionInstrs, Interrupt: canceled.Err, InterruptEvery: 1}
	if _, err := db.simulate(canceled, key, prog, r, w, ropts); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled leader: err = %v, want context.Canceled", err)
	}
	probe := errors.New("probe")
	if _, cached, _ := db.sims.Do(ctx, key, func() (*cpu.Profile, error) { return nil, probe }); cached {
		t.Fatal("a canceled leader left its call in the simulation tier")
	}
	live := cpu.RunOptions{MaxInstrs: MaxRegionInstrs, Interrupt: ctx.Err}
	p, err := db.simulate(ctx, key, prog, r, w, live)
	if err != nil || p == nil {
		t.Fatalf("next caller: %v", err)
	}
	if got := db.Stats.SimMisses.Load(); got != 2 {
		t.Errorf("SimMisses = %d, want 2 (the next caller simulates)", got)
	}

	// A stalled in-flight leader: a canceled waiter gives up; a live waiter
	// takes over once the leader fails.
	key[0] ^= 1
	stalled, release, leaderDone := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(leaderDone)
		db.sims.Do(ctx, key, func() (*cpu.Profile, error) {
			close(stalled)
			<-release
			return nil, errors.New("stalled leader failed")
		})
	}()
	<-stalled
	if _, err := db.simulate(canceled, key, prog, r, w, live); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled waiter: err = %v, want context.Canceled", err)
	}
	res := make(chan *cpu.Profile)
	waiting := newJoinCtx(ctx)
	go func() {
		q, err := db.simulate(waiting, key, prog, r, w, live)
		if err != nil {
			t.Error(err)
		}
		res <- q
	}()
	<-waiting.joined
	close(release)
	<-leaderDone
	if q := <-res; q == nil || !bytes.Equal(cpf1(t, q), cpf1(t, p)) {
		t.Error("waiter of a failed leader did not simulate the program itself")
	}
	if got := db.Stats.SimHits.Load(); got != 0 {
		t.Errorf("SimHits = %d, want 0 (no caller took a failed leader's result)", got)
	}
}
