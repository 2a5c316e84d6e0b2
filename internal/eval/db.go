package eval

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"compisa/internal/check"
	"compisa/internal/code"
	"compisa/internal/compiler"
	"compisa/internal/cpu"
	"compisa/internal/fault"
	"compisa/internal/isa"
	"compisa/internal/migrate"
	"compisa/internal/par"
	"compisa/internal/workload"
)

// DB caches per-(region, ISA) profiles and evaluated design points, and
// evaluates candidates against the whole workload suite. All methods are
// safe for concurrent use after construction; Inject/Log must be
// configured before the first evaluation.
//
// Three cache tiers back the pipeline:
//
//   - profiles: ISA key → per-region profiles, computed through a
//     par.Memo so concurrent callers share one computation;
//   - simulations: under the profile tier, a digest of everything
//     cpu.CollectProfileOpts reads from a compiled region (see simKeyOf)
//     → that program's profile, through a par.Memo the same way. ISA keys
//     that compile a region to the same code (predication with no
//     if-convertible diamond, SIMD on a scalar kernel, a register depth
//     that never spills) share one functional simulation; build, compile
//     and verification still run for every (region, ISA) cell;
//   - candidates: (ISA key, canonical config) → evaluated design point,
//     normalized against the DB's own reference metrics, so the 4680-point
//     scoring stage runs once per process no matter how many budgets,
//     organizations, or experiment drivers consume it. A candidate keeps
//     only what searches and the serving layer read (scores, area, peak
//     power); EachMetric rescores a point's full per-region metrics on
//     demand. Only the profile tier is durable (Persister); a restart
//     re-scores the points a saved State lists (Rescore).
//
// Beside the tiers, each profile set's perfmodel scorers are built once
// (scorers) and shared by every later score of that ISA.
//
// Failure model: a failing (region, ISA) evaluation is retried (bounded,
// with backoff) while it looks transient, then quarantined — its profile
// slot stays nil and every design point using that ISA scores the region
// at the documented quarantine penalties instead of aborting the run. The
// x86-64 reference ISA is exempt from injection and strict about failures,
// because a failed reference would invalidate every normalized metric. An
// attempt with an injected fault bypasses the simulation tier, so
// injection, retry and quarantine stay per (region, ISA) pair.
//
// Profiles returned by Profiles are shared between ISA keys (a simulation
// hit hands out the leader's own *cpu.Profile when its name and compile
// statistics already match) and must be treated as immutable.
type DB struct {
	Regions []workload.Region

	// Inject deterministically injects faults into non-reference profile
	// evaluations (nil = no injection).
	Inject *fault.Injector
	// Log, if set, receives fault-tolerance events (retries, quarantines,
	// degraded evaluations).
	Log func(format string, args ...any)
	// Persist, if set, receives every freshly computed profile set
	// (write-through durability; see Persister). Persist failures degrade
	// durability, never the evaluation.
	Persist Persister
	// Stats instruments the pipeline's stages and cache tiers.
	Stats Stats

	// persistDown tracks the durable tier's health for edge-triggered
	// logging (a dead disk must not flood the log per evaluation) and for
	// PersistDegraded.
	persistDown atomic.Bool

	profileSets par.Memo[string, []*cpu.Profile] // ISA key -> Profiles' computation
	sims        par.Memo[simKey, *cpu.Profile]   // simulation tier

	mu         sync.Mutex
	profiles   map[string][]*cpu.Profile // ISA key -> per-region profiles (nil slot = quarantined)
	quarantine map[string]string         // "region|isaKey" -> reason
	cands      map[string]*Candidate     // DesignPoint.CacheKey() -> candidate
	scorerSets map[string]*scorerSet     // ISA key -> scorers over its profile set
	ref        []Metric                  // memoized reference metrics (normalization basis)
}

// NewDB builds an evaluation database over the full 49-region suite.
func NewDB() *DB {
	return &DB{
		Regions:  workload.Regions(),
		profiles: make(map[string][]*cpu.Profile, 32),
		// quarantine is keyed per (region, ISA) pair; size for a handful of
		// bad pairs, not the cross product.
		quarantine: make(map[string]string, 8),
		// cands holds the full sweep: ~26 choices x ~180 configurations.
		cands:      make(map[string]*Candidate, 4096),
		scorerSets: make(map[string]*scorerSet, 32),
	}
}

func (db *DB) logf(format string, args ...any) {
	if db.Log != nil {
		db.Log(format, args...)
	}
}

// isReference reports whether a choice is the normalization baseline
// (plain x86-64): exempt from fault injection and strict about failures.
func isReference(c ISAChoice) bool {
	return c.Vendor == nil && c.Key() == X8664Choice().Key()
}

func pairKey(region, isaKey string) string { return region + "|" + isaKey }

// Profiles returns (computing on first use) the per-region profiles for an
// ISA choice. Vendor choices reuse their x86-ized feature set's compiled
// code, then apply the vendor's code-density traits. Quarantined (region,
// ISA) pairs yield nil slots; see Evaluate for how they are scored.
// Concurrent callers for the same ISA share one computation, and one
// caller's cancellation never fails another (see par.Memo).
func (db *DB) Profiles(ctx context.Context, c ISAChoice) ([]*cpu.Profile, error) {
	return db.profilesOf(ctx, c, c.Key())
}

// profilesOf is Profiles for a caller that already holds c's key.
func (db *DB) profilesOf(ctx context.Context, c ISAChoice, key string) ([]*cpu.Profile, error) {
	// Each call counts once: a hit when it shares another call's set (the
	// work is shared, not repeated) or finds one restored, a miss when it
	// computes one.
	ps, shared, err := db.profileSets.Do(ctx, key, func() ([]*cpu.Profile, error) {
		db.mu.Lock()
		ps, ok := db.profiles[key] // restored from a store record
		db.mu.Unlock()
		if ok {
			db.Stats.ProfileHits.Inc()
			return ps, nil
		}
		db.Stats.ProfileMisses.Inc()
		ps, err := db.computeProfiles(ctx, c)
		if err == nil {
			db.mu.Lock()
			db.profiles[key] = ps
			db.mu.Unlock()
			db.persist(key, ps)
		}
		return ps, err
	})
	if shared {
		db.Stats.ProfileHits.Inc()
	}
	return ps, err
}

// computeProfiles profiles every region for one ISA on the par pool,
// applying the retry/quarantine policy. It uses par.MapAll because the
// policy triages each region's failure individually instead of aborting
// on the first one.
func (db *DB) computeProfiles(ctx context.Context, c ISAChoice) ([]*cpu.Profile, error) {
	ps, errs := par.MapAll(ctx, len(db.Regions), 0, func(i int) (*cpu.Profile, error) {
		return db.profileWithRetry(ctx, db.Regions[i], c)
	})
	strict := isReference(c)
	for _, err := range errs {
		if err == nil {
			continue
		}
		if IsCtxErr(err) {
			return nil, err
		}
		if strict {
			return nil, fmt.Errorf("eval: reference ISA failed (all normalized metrics depend on it): %w", err)
		}
	}
	// Quarantine only once the set is known to complete, so a canceled or
	// reference-failed computation leaves no partial quarantine entries.
	for i, err := range errs {
		if err == nil {
			continue
		}
		key := pairKey(db.Regions[i].Name, c.Key())
		db.mu.Lock()
		db.quarantine[key] = err.Error()
		db.mu.Unlock()
		db.Stats.Quarantines.Inc()
		db.logf("eval: quarantined %s: %v", key, err)
		ps[i] = nil
	}
	return ps, nil
}

// profileWithRetry runs one (region, ISA) evaluation with bounded retries
// for transient faults.
func (db *DB) profileWithRetry(ctx context.Context, r workload.Region, c ISAChoice) (*cpu.Profile, error) {
	var err error
	for attempt := 0; attempt < maxAttempts; attempt++ {
		if attempt > 0 {
			db.Stats.Retries.Inc()
			db.logf("eval: retrying %s for %s (attempt %d): %v", r.Name, c.Key(), attempt+1, err)
			t := time.NewTimer(retryBackoff << (attempt - 1))
			select {
			case <-ctx.Done():
				t.Stop()
				return nil, ctx.Err()
			case <-t.C:
			}
		}
		var p *cpu.Profile
		p, err = db.profileOnce(ctx, r, c, attempt)
		if err == nil {
			return p, nil
		}
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		if !fault.IsTransient(err) {
			return nil, err
		}
	}
	return nil, err
}

// profileOnce is one attempt at profiling (region, ISA): build, compile,
// verify, simulate (through the simulation tier unless a fault is
// injected), vendor-adjust. Injected faults are applied here so they exercise
// the real failure paths (compiler error return, watchdog, decode error).
// A panic anywhere in the attempt is recovered into a *fault.Error.
func (db *DB) profileOnce(ctx context.Context, r workload.Region, c ISAChoice, attempt int) (p *cpu.Profile, err error) {
	key := pairKey(r.Name, c.Key())
	defer func() {
		if rec := recover(); rec != nil {
			p = nil
			err = &fault.Error{
				Stage: fault.StageExec, Region: r.Name, ISA: c.Key(),
				Err: fmt.Errorf("recovered panic: %v", rec),
			}
		}
	}()
	var d fault.Decision
	if !isReference(c) {
		d = db.Inject.Decide(key, attempt)
	}
	// classify wraps an organic or injected failure into the taxonomy;
	// injected failures inherit the decision's transience.
	classify := func(stage fault.Stage, cause error) error {
		transient := d.Kind != fault.KindNone && d.Transient
		var fe *fault.Error
		if errors.As(cause, &fe) {
			return cause
		}
		return &fault.Error{Stage: stage, Region: r.Name, ISA: c.Key(), Transient: transient, Err: cause}
	}
	if d.Delay > 0 {
		// KindSlow delays without failing, exercising deadline handling.
		t := time.NewTimer(d.Delay)
		select {
		case <-ctx.Done():
			t.Stop()
			return nil, ctx.Err()
		case <-t.C:
		}
	}
	prog, err := db.compile(r, c, d)
	if err != nil {
		return nil, classify(fault.StageCompile, err)
	}
	if d.Kind == fault.KindBadCode {
		// Seed illegal codegen through the real mutation harness: the
		// static verification stage (not the executor) must catch it.
		check.Mutate(prog, check.RuleUDef, db.Inject.Seed())
	}
	// The static conformance verifier (internal/check) runs on every
	// freshly compiled program before execution: it costs well under a
	// millisecond per region and turns silent bad codegen into a StageVerify
	// fault for the retry/quarantine machinery.
	verifyStart := time.Now()
	db.Stats.Verifies.Inc()
	rep := check.Analyze(prog)
	db.Stats.VerifyTime.Since(verifyStart)
	if n := rep.Errors(); n > 0 {
		db.Stats.VerifyFindings.Add(int64(n))
		verr := rep.Err()
		if d.Kind == fault.KindBadCode {
			verr = fmt.Errorf("%w: %w", fault.ErrInjected, verr)
		}
		return nil, classify(fault.StageVerify, verr)
	}
	ropts := cpu.RunOptions{MaxInstrs: MaxRegionInstrs, Interrupt: ctx.Err}
	switch d.Kind {
	case fault.KindRunaway:
		ropts.MaxInstrs = runawayInstrs
	case fault.KindCorrupt:
		// An opcode outside the ISA: decode hits ErrUnimplementedOp on the
		// first executed instruction, through the real decode path.
		prog.Instrs[0].Op = 0xEF
	}
	if d.Kind == fault.KindNone {
		p, err = db.simulate(ctx, simKeyOf(r.Name, c.FS.Width, prog), prog, r, c.FS.Width, ropts)
	} else {
		p, err = db.exec(prog, r, c.FS.Width, ropts)
	}
	if err != nil {
		if d.Kind == fault.KindRunaway || d.Kind == fault.KindCorrupt {
			err = fmt.Errorf("%w: %w", fault.ErrInjected, err)
		}
		return nil, classify(fault.StageExec, err)
	}
	if c.Vendor != nil && !c.Vendor.HasBackend() {
		p = vendorAdjust(p, c)
	}
	return p, nil
}

// compile is the build and compile stage of every profiled cell: region r's
// code built at c's width and compiled for c (failing if d injects a
// compile fault), unverified. The memory image the program runs on is built
// only if it is simulated (see exec): most cells share another cell's
// simulation and never run.
func (db *DB) compile(r workload.Region, c ISAChoice, d fault.Decision) (*code.Program, error) {
	start := time.Now()
	db.Stats.Compiles.Inc()
	f, err := r.Code(c.FS.Width)
	if err != nil {
		return nil, err
	}
	if d.Kind == fault.KindCompile {
		return nil, fmt.Errorf("compile %s for %s: %w", f.Name, c.FS.ShortName(), d.Errorf())
	}
	// The pipeline has its own verification stage (with fault
	// classification and stats); skip the compiler's internal gate so the
	// work isn't done twice and failures carry the right stage.
	copts := compiler.Options{Verify: compiler.VerifyOff}
	if c.Vendor != nil {
		// Vendors with a real encoding backend compile through it: the
		// profile's code bytes, instruction lengths, and I-side cache
		// behavior are measured from the target's encoder instead of being
		// scaled by the analytic CodeDensity fallback in vendorAdjust.
		copts.Target = c.Vendor.Target
	}
	prog, err := compiler.Compile(f, c.FS, copts)
	if err != nil {
		return nil, err
	}
	db.Stats.CompileTime.Since(start)
	prog.Name = r.Name
	return prog, nil
}

// TranslatedProfiles profiles, on the par pool, every region compiled for
// from and translated to to by migrate.Translate (Figure 14). A refused
// translation (vector code bound for a SIMD-less core) leaves a nil slot;
// any other failure fails the call. Translated programs share the
// simulation tier but are neither injected nor verified: the verifier
// rejects translator output that runs correctly (see DESIGN.md, "Cache
// tiers"), and quarantining it would move the figure.
func (db *DB) TranslatedProfiles(ctx context.Context, from, to isa.FeatureSet) ([]*cpu.Profile, error) {
	ropts := cpu.RunOptions{MaxInstrs: MaxRegionInstrs, Interrupt: ctx.Err}
	return par.Map(ctx, len(db.Regions), 0, func(i int) (*cpu.Profile, error) {
		r := db.Regions[i]
		prog, err := db.compile(r, ISAChoice{FS: from}, fault.Decision{})
		if err != nil {
			return nil, fault.Wrap(fault.StageCompile, r.Name, from.String(), err)
		}
		trans, err := migrate.Translate(prog, to)
		if err != nil {
			return nil, nil
		}
		p, err := db.simulate(ctx, simKeyOf(r.Name, from.Width, trans), trans, r, from.Width, ropts)
		return p, fault.Wrap(fault.StageExec, r.Name, to.String(), err)
	})
}

// simulate returns prog's profile, running the functional simulation only
// if no other cell with the same key already has. A failed simulation is
// never kept: its waiters simulate again (see par.Memo).
func (db *DB) simulate(ctx context.Context, key simKey, prog *code.Program, r workload.Region, width int, ropts cpu.RunOptions) (*cpu.Profile, error) {
	p, shared, err := db.sims.Do(ctx, key, func() (*cpu.Profile, error) {
		db.Stats.SimMisses.Inc()
		return db.exec(prog, r, width, ropts)
	})
	if err != nil || !shared {
		return p, err
	}
	db.Stats.SimHits.Inc()
	return overlay(p, prog), nil
}

// exec runs one functional simulation of prog, compiled from region r
// built at width, with profiling; Execs, ExecTime and ProfileTime count only
// these real runs. ExecTime includes generating the region's initial memory
// image, which compile leaves out; ProfileTime is the profiler's share of
// ExecTime.
func (db *DB) exec(prog *code.Program, r workload.Region, width int, ropts cpu.RunOptions) (*cpu.Profile, error) {
	start := time.Now()
	db.Stats.Execs.Inc()
	m, err := r.Image(width)
	if err != nil {
		return nil, err
	}
	p, _, busy, err := cpu.CollectProfileTimed(prog, m, ropts)
	if err != nil {
		return nil, err
	}
	db.Stats.ExecTime.Since(start)
	db.Stats.ProfileTime.Observe(busy)
	return p, nil
}

// overlay returns the shared profile p as the profile of prog, another cell
// with the same simulation key: p itself when the cell's name and compile
// statistics already match, else a copy carrying them.
func overlay(p *cpu.Profile, prog *code.Program) *cpu.Profile {
	if p.Name == prog.Name && p.Stats == prog.Stats {
		return p
	}
	q := *p
	q.Name, q.Stats = prog.Name, prog.Stats
	return &q
}

// vendorAdjust applies a vendor ISA's encoding traits to a profile built
// from its x86-ized equivalent. It is the documented analytic FALLBACK for
// vendors without a real encoding backend (today only Thumb, whose
// compressed target does not exist yet): code density scales the static and
// dynamic code footprint (Thumb: 0.70), which shifts I-cache misses and
// micro-op cache reach; fixed-length decode is handled by the power model.
// Vendors with a backend (x86-64, Alpha) never reach this path — their
// profiles carry measured code bytes from the target's encoder.
func vendorAdjust(p *cpu.Profile, c ISAChoice) *cpu.Profile {
	v := c.Vendor
	q := *p
	q.CodeBytes = int(float64(p.CodeBytes) * v.CodeDensity)
	q.AvgInstrLen = p.AvgInstrLen * v.CodeDensity
	for i := range q.Mem {
		for d := range q.Mem[i] {
			for l := range q.Mem[i][d] {
				m := p.Mem[i][d][l]
				m.L1IMisses = int64(float64(m.L1IMisses) * v.CodeDensity)
				q.Mem[i][d][l] = m
			}
		}
	}
	// Denser code covers more of the micro-op cache's reach.
	if v.CodeDensity < 1 {
		q.UopCacheHitRate = p.UopCacheHitRate + (1-p.UopCacheHitRate)*(1-v.CodeDensity)
	}
	return &q
}
