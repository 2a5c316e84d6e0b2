package eval

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"compisa/internal/check"
	"compisa/internal/compiler"
	"compisa/internal/cpu"
	"compisa/internal/fault"
	"compisa/internal/par"
	"compisa/internal/workload"
)

// DB caches per-(region, ISA) profiles and evaluated design points, and
// evaluates candidates against the whole workload suite. All methods are
// safe for concurrent use after construction; Inject/Policy/Log must be
// configured before the first evaluation.
//
// Two cache tiers back the pipeline:
//
//   - profiles: ISA key → per-region profiles (the expensive functional
//     executions), singleflighted so concurrent callers share one
//     computation;
//   - candidates: (ISA key, canonical config) → evaluated design point,
//     normalized against the DB's own reference metrics, so the 4680-point
//     scoring stage runs once per process (and once per checkpoint
//     lineage) no matter how many budgets, organizations, or experiment
//     drivers consume it.
//
// Failure model: a failing (region, ISA) evaluation is retried (bounded,
// with backoff) while it looks transient, then quarantined — its profile
// slot stays nil and every design point using that ISA scores the region
// at the documented Policy penalties instead of aborting the run. The
// x86-64 reference ISA is exempt from injection and strict about failures,
// because a failed reference would invalidate every normalized metric.
type DB struct {
	Regions []workload.Region

	// Inject deterministically injects faults into non-reference profile
	// evaluations (nil = no injection).
	Inject *fault.Injector
	// Verify runs the static conformance verifier (internal/check) on every
	// freshly compiled program before execution; violations become
	// StageVerify faults handled by the retry/quarantine machinery.
	// NewDB enables it — the stage costs well under a millisecond per
	// region and turns silent bad codegen into a classified fault.
	Verify bool
	// Policy tunes retries and degradation penalties.
	Policy Policy
	// Log, if set, receives fault-tolerance events (retries, quarantines,
	// degraded evaluations).
	Log func(format string, args ...any)
	// Persist, if set, receives every freshly evaluated cacheable candidate
	// (write-through durability; see Persister). Persist failures degrade
	// durability, never the evaluation.
	Persist Persister
	// Stats instruments the pipeline's stages and cache tiers.
	Stats Stats

	// persistDown tracks the durable tier's health for edge-triggered
	// logging (a dead disk must not flood the log per evaluation).
	persistDown atomic.Bool

	mu         sync.Mutex
	profiles   map[string][]*cpu.Profile // ISA key -> per-region profiles (nil slot = quarantined)
	inflight   map[string]*inflightProfiles
	quarantine map[string]string     // "region|isaKey" -> reason
	cands      map[string]*Candidate // DesignPoint.CacheKey() -> candidate
	ref        []Metric              // memoized reference metrics (normalization basis)
}

// inflightProfiles is one in-progress per-ISA profile computation; duplicate
// callers wait on done instead of recomputing (per-key singleflight).
type inflightProfiles struct {
	done chan struct{}
	ps   []*cpu.Profile
	err  error
}

// NewDB builds an evaluation database over the full 49-region suite.
func NewDB() *DB {
	return &DB{
		Regions:  workload.Regions(),
		Verify:   true,
		profiles: make(map[string][]*cpu.Profile, 32),
		inflight: make(map[string]*inflightProfiles, 32),
		// quarantine is keyed per (region, ISA) pair; size for a handful of
		// bad pairs, not the cross product.
		quarantine: make(map[string]string, 8),
		// cands holds the full sweep: ~26 choices x ~180 configurations.
		cands: make(map[string]*Candidate, 4096),
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
// Concurrent callers for the same ISA share one computation.
func (db *DB) Profiles(ctx context.Context, c ISAChoice) ([]*cpu.Profile, error) {
	key := c.Key()
	db.mu.Lock()
	if ps, ok := db.profiles[key]; ok {
		db.mu.Unlock()
		db.Stats.ProfileHits.Inc()
		return ps, nil
	}
	if call, ok := db.inflight[key]; ok {
		db.mu.Unlock()
		// Joining an in-flight computation counts as a hit: the work is
		// shared, not repeated.
		db.Stats.ProfileHits.Inc()
		select {
		case <-call.done:
			return call.ps, call.err
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	call := &inflightProfiles{done: make(chan struct{})}
	db.inflight[key] = call
	db.mu.Unlock()
	db.Stats.ProfileMisses.Inc()

	ps, err := db.computeProfiles(ctx, c)
	db.mu.Lock()
	if err == nil {
		db.profiles[key] = ps
	}
	delete(db.inflight, key)
	db.mu.Unlock()
	call.ps, call.err = ps, err
	close(call.done)
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
		if isCtxErr(err) {
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
	pol := db.Policy.WithDefaults()
	var err error
	for attempt := 0; attempt < pol.MaxAttempts; attempt++ {
		if attempt > 0 {
			db.Stats.Retries.Inc()
			db.logf("eval: retrying %s for %s (attempt %d): %v", r.Name, c.Key(), attempt+1, err)
			t := time.NewTimer(pol.Backoff << (attempt - 1))
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
// execute, vendor-adjust. Injected faults are applied here so they exercise
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
	compileStart := time.Now()
	db.Stats.Compiles.Inc()
	f, m, err := r.Build(c.FS.Width)
	if err != nil {
		return nil, classify(fault.StageCompile, err)
	}
	// The pipeline has its own verification stage below (with fault
	// classification and stats); skip the compiler's internal gate so the
	// work isn't done twice and failures carry the right stage.
	copts := compiler.Options{Verify: compiler.VerifyOff}
	if c.Vendor != nil {
		// Vendors with a real encoding backend compile through it: the
		// profile's code bytes, instruction lengths, and I-side cache
		// behavior are measured from the target's encoder instead of being
		// scaled by the analytic CodeDensity fallback below.
		copts.Target = c.Vendor.Target
	}
	if d.Kind == fault.KindCompile {
		copts.FaultHook = func() error { return d.Errorf() }
	}
	prog, err := compiler.Compile(f, c.FS, copts)
	if err != nil {
		return nil, classify(fault.StageCompile, err)
	}
	db.Stats.CompileTime.Since(compileStart)
	prog.Name = r.Name
	if d.Kind == fault.KindBadCode {
		// Seed illegal codegen through the real mutation harness: the
		// static verification stage (not the executor) must catch it.
		check.Mutate(prog, check.RuleUDef, db.Inject.Seed())
	}
	if db.Verify {
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
	execStart := time.Now()
	db.Stats.Execs.Inc()
	p, _, err = cpu.CollectProfileOpts(prog, m, ropts)
	if err != nil {
		if d.Kind == fault.KindRunaway || d.Kind == fault.KindCorrupt {
			err = fmt.Errorf("%w: %w", fault.ErrInjected, err)
		}
		return nil, classify(fault.StageExec, err)
	}
	db.Stats.ExecTime.Since(execStart)
	if c.Vendor != nil && !c.Vendor.HasBackend() {
		p = vendorAdjust(p, c)
	}
	return p, nil
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
