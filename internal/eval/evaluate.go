package eval

import (
	"context"
	"fmt"
	"time"

	"compisa/internal/cpu"
	"compisa/internal/fault"
	"compisa/internal/par"
	"compisa/internal/perfmodel"
	"compisa/internal/power"
)

// Metric is the evaluated outcome of one region on one design point.
type Metric struct {
	Cycles float64
	Energy float64 // joules
	Perf   perfmodel.Result
}

// Candidate is a fully evaluated single-core design point. Candidates are
// immutable once evaluated: the candidate cache and every search share the
// same pointers.
type Candidate struct {
	DP      DesignPoint
	AreaMM2 float64
	PeakW   float64
	// Per-region metrics, indexed like DB.Regions.
	M []Metric
	// Speedup[r] = reference cycles / candidate cycles for region r.
	Speedup []float64
	// NormEDP[r] = candidate E*D / reference E*D.
	NormEDP []float64
	// Degraded[r] marks regions scored at the quarantine penalties because the
	// (region, ISA) pair is quarantined (or its model evaluation failed).
	Degraded []bool
}

// MeanSpeedup is the arithmetic-mean speedup across regions (region weights
// applied by the schedulers, not here).
func (c *Candidate) MeanSpeedup() float64 {
	s := 0.0
	for _, v := range c.Speedup {
		s += v
	}
	return s / float64(len(c.Speedup))
}

// ReferenceMetrics evaluates the normalization core (x86-64 on the reference
// configuration) over all regions, computing once and memoizing: the result
// is the identity the candidate cache is keyed against. It is strict: the
// reference ISA is injection-exempt, and any failure here is fatal because
// every normalized metric depends on it.
func (db *DB) ReferenceMetrics(ctx context.Context) ([]Metric, error) {
	db.mu.Lock()
	ref := db.ref
	db.mu.Unlock()
	if ref != nil {
		return ref, nil
	}
	dp := DesignPoint{ISA: X8664Choice(), Cfg: ReferenceConfig()}
	c, err := db.Evaluate(ctx, dp, nil)
	if err != nil {
		return nil, err
	}
	db.mu.Lock()
	if db.ref == nil {
		db.ref = c.M
	}
	ref = db.ref
	db.mu.Unlock()
	return ref, nil
}

// isOwnRef reports whether ref is the DB's memoized reference slice; only
// evaluations normalized against it are cacheable (a foreign ref would bind
// cached speedups to a different normalization basis).
func (db *DB) isOwnRef(ref []Metric) bool {
	if len(ref) == 0 {
		return false
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.ref != nil && &db.ref[0] == &ref[0]
}

// Evaluate computes a candidate for one design point, normalized against the
// reference metrics (see ReferenceMetrics). Evaluations against the DB's own
// reference are memoized in the candidate cache tier, keyed by
// DesignPoint.CacheKey, so repeated sweeps over overlapping design points
// (different budgets, organizations, experiment drivers) share one scoring
// pass. Quarantined regions degrade to the quarantine penalties (Speedup =
// speedupPenalty, NormEDP = edpPenalty, with Cycles/Energy back-derived from
// the reference) instead of failing; with a nil ref (the reference
// evaluation itself) any failure is an error.
func (db *DB) Evaluate(ctx context.Context, dp DesignPoint, ref []Metric) (*Candidate, error) {
	cs, err := db.EvaluateBatch(ctx, dp.ISA, []cpu.CoreConfig{dp.Cfg}, ref)
	if err != nil {
		return nil, err
	}
	return cs[0], nil
}

// EvaluateBatch evaluates every configuration of one ISA choice in a single
// pass: one profile fetch and one perfmodel.Scorer per region are shared
// across the whole configuration set, so the configuration-independent terms
// of the interval model (micro-op mix fractions, mispredict volumes, naive
// stall sums) are computed once instead of ~180 times per profile. It is the
// batch counterpart of Evaluate — same candidate cache tier, same degradation
// policy, same stats. TestEvaluateBatchMatchesOracle checks each candidate
// against its composition from perfmodel.Cycles, power.Energy and the
// normalization formulas. The returned slice is indexed like cfgs.
func (db *DB) EvaluateBatch(ctx context.Context, choice ISAChoice, cfgs []cpu.CoreConfig, ref []Metric) ([]*Candidate, error) {
	out := make([]*Candidate, len(cfgs))
	cacheable := db.isOwnRef(ref)
	var keys []string
	missing := make([]int, 0, len(cfgs))
	if cacheable {
		// Keys are built before taking db.mu, so concurrent batches
		// serialize only on the map lookups.
		keys = make([]string, len(cfgs))
		for i := range cfgs {
			keys[i] = DesignPoint{ISA: choice, Cfg: cfgs[i]}.CacheKey()
		}
		db.mu.Lock()
		for i := range cfgs {
			if c, ok := db.cands[keys[i]]; ok {
				out[i] = c
			} else {
				missing = append(missing, i)
			}
		}
		db.mu.Unlock()
		db.Stats.CandidateHits.Add(int64(len(cfgs) - len(missing)))
		db.Stats.CandidateMisses.Add(int64(len(missing)))
		if len(missing) == 0 {
			return out, nil
		}
	} else {
		for i := range cfgs {
			missing = append(missing, i)
		}
	}

	ps, err := db.Profiles(ctx, choice)
	if err != nil {
		return nil, err
	}
	n := len(db.Regions)
	tr := choice.Traits()

	// One scorer per region, built once for the whole configuration set. A
	// construction error (empty profile) is a model error for every
	// configuration and is surfaced per region below, exactly where the
	// per-configuration path would hit it.
	scorers := make([]*perfmodel.Scorer, n)
	scorerErrs := make([]error, n)
	for r := 0; r < n; r++ {
		if ps[r] == nil {
			continue
		}
		scorers[r], scorerErrs[r] = perfmodel.NewScorer(ps[r])
	}

	modelStart := time.Now()
	for _, i := range missing {
		dp := DesignPoint{ISA: choice, Cfg: cfgs[i]}
		c := &Candidate{
			DP:       dp,
			AreaMM2:  dp.Area(),
			PeakW:    dp.Peak(),
			M:        make([]Metric, n),
			Speedup:  make([]float64, n),
			NormEDP:  make([]float64, n),
			Degraded: make([]bool, n),
		}
		degrade := func(r int) {
			db.Stats.DegradedRegions.Inc()
			c.Degraded[r] = true
			c.Speedup[r] = speedupPenalty
			c.NormEDP[r] = edpPenalty
			// Back-derive placeholder metrics consistent with the penalties:
			// D = refD/speedupPenalty and E*D = edpPenalty*refE*refD.
			c.M[r] = Metric{
				Cycles: ref[r].Cycles / speedupPenalty,
				Energy: ref[r].Energy * edpPenalty * speedupPenalty,
			}
		}
		for r := 0; r < n; r++ {
			if ps[r] == nil {
				if ref == nil {
					return nil, fmt.Errorf("eval: reference region %s unavailable", db.Regions[r].Name)
				}
				degrade(r)
				continue
			}
			db.Stats.ModelEvals.Inc()
			var perf perfmodel.Result
			perr := scorerErrs[r]
			if perr == nil {
				perf, perr = scorers[r].Cycles(dp.Cfg)
			}
			if perr != nil {
				merr := fault.Wrap(fault.StageModel, db.Regions[r].Name, dp.ISA.Key(), perr)
				if ref == nil {
					return nil, merr
				}
				db.logf("eval: degrading %s on %s: %v", db.Regions[r].Name, dp, merr)
				degrade(r)
				continue
			}
			en := power.Energy(tr, dp.Cfg, ps[r], perf)
			c.M[r] = Metric{Cycles: perf.Cycles, Energy: en.Total, Perf: perf}
			if ref != nil {
				c.Speedup[r] = ref[r].Cycles / perf.Cycles
				c.NormEDP[r] = (en.Total * perf.Cycles) / (ref[r].Energy * ref[r].Cycles)
			}
		}
		if cacheable {
			db.mu.Lock()
			// Existing entries win so concurrent evaluations of one design
			// point converge on a single shared candidate.
			won := false
			if prev, ok := db.cands[keys[i]]; ok {
				c = prev
			} else {
				db.cands[keys[i]] = c
				won = true
			}
			db.mu.Unlock()
			// Write-through the winning entry only: the durable log gets each
			// evaluated point once, as soon as it exists.
			if won {
				db.persist(keys[i], c)
			}
		}
		out[i] = c
	}
	db.Stats.ModelTime.Since(modelStart)
	return out, nil
}

// Candidates evaluates every (ISA choice, configuration) pair on the par
// pool, one EvaluateBatch per choice: profiling parallelizes across choices
// (the singleflight cache dedupes concurrent interest in one ISA) while each
// choice's full configuration set is scored in a single batch pass. The
// result is choice-major, configuration-minor — the same order the per-point
// version produced.
func (db *DB) Candidates(ctx context.Context, choices []ISAChoice, cfgs []cpu.CoreConfig, ref []Metric) ([]*Candidate, error) {
	perChoice, err := par.Map(ctx, len(choices), 0, func(i int) ([]*Candidate, error) {
		return db.EvaluateBatch(ctx, choices[i], cfgs, ref)
	})
	if err != nil {
		return nil, err
	}
	out := make([]*Candidate, 0, len(choices)*len(cfgs))
	for _, cs := range perChoice {
		out = append(out, cs...)
	}
	return out, nil
}
