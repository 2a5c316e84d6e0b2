package eval

import (
	"context"
	"errors"
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

// Candidate is a fully evaluated single-core design point: what searches and
// the serving layer read. Its per-region Metrics are not kept (they would be
// ~80% of its size); DB.EachMetric recomputes them. Candidates are immutable
// once evaluated: the candidate cache and every search share the same
// pointers.
type Candidate struct {
	DP      DesignPoint
	AreaMM2 float64
	PeakW   float64
	// Speedup[r] = reference cycles / candidate cycles for region r, with
	// regions indexed like DB.Regions.
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
	return db.reference(ctx, true)
}

// reference is ReferenceMetrics; with count unset its first computation
// counts nothing in db.Stats and reads the reference profile set from the
// profile tier only (see Rescore).
func (db *DB) reference(ctx context.Context, count bool) ([]Metric, error) {
	db.mu.Lock()
	ref := db.ref
	db.mu.Unlock()
	if ref != nil {
		return ref, nil
	}
	dp := DesignPoint{ISA: X8664Choice(), Cfg: ReferenceConfig()}
	s, err := db.scorers(ctx, dp.ISA, count)
	if err != nil {
		return nil, err
	}
	m := make([]Metric, len(db.Regions))
	err = db.score(s, dp, nil, true, func(r int, x Metric, _ power.EnergyResult, _ error) {
		if count {
			db.tally(dp, r, nil)
		}
		m[r] = x
	})
	if err != nil {
		return nil, err
	}
	db.mu.Lock()
	if db.ref == nil {
		db.ref = m
	}
	ref = db.ref
	db.mu.Unlock()
	return ref, nil
}

// EachMetric rescores dp against the DB's reference, uncached, and hands
// each region's metric to each, in region order, with the power.Energy
// result its energy came from. Nothing keeps these metrics, so the
// candidate tier stays small; they are the metrics EvaluateBatch scored
// dp's candidate from, bit for bit. A degraded region comes with the error
// it degraded on, a placeholder metric back-derived from the reference and
// a zero energy result. Rescoring counts nothing in db.Stats once dp's ISA
// has been scored (its first use fetches its profile set, counted as
// Profiles counts).
func (db *DB) EachMetric(ctx context.Context, dp DesignPoint, each func(r int, m Metric, en power.EnergyResult, err error)) error {
	return db.rescore(ctx, dp, true, each)
}

// EachCycles is EachMetric for readers of cycles alone: it hands each
// region's Metric.Cycles to each and skips the energy model.
func (db *DB) EachCycles(ctx context.Context, dp DesignPoint, each func(r int, cycles float64)) error {
	return db.rescore(ctx, dp, false, func(r int, m Metric, _ power.EnergyResult, _ error) { each(r, m.Cycles) })
}

// rescore is EachMetric, with the energy model run only if energy is set.
func (db *DB) rescore(ctx context.Context, dp DesignPoint, energy bool, each func(r int, m Metric, en power.EnergyResult, err error)) error {
	ref, err := db.ReferenceMetrics(ctx)
	if err != nil {
		return err
	}
	db.mu.Lock()
	s := db.scorerSets[dp.ISA.Key()]
	db.mu.Unlock()
	if s == nil {
		if s, err = db.scorers(ctx, dp.ISA, true); err != nil {
			return err
		}
	}
	return db.score(s, dp, ref, energy, each)
}

// scorerSet is what scoring any configuration of one ISA choice reads: its
// profile set and one perfmodel.Scorer per region. Scorers are immutable,
// so the DB builds one set per profile set and every later score shares it.
type scorerSet struct {
	ps      []*cpu.Profile
	scorers []*perfmodel.Scorer
	// errs holds each region's scorer construction error (an empty
	// profile): a model error for every configuration, surfaced by score.
	errs []error
	tr   power.Traits
}

// scorers returns choice's scorer set, fetching the profile set through
// Profiles (so profile hits and misses count as before) and building the
// scorers on the set's first use. With count unset it counts nothing and
// takes the profile set from the profile tier, failing if it is not there.
// Concurrent first uses may each build a set; they are equal, and the first
// one stored is kept.
func (db *DB) scorers(ctx context.Context, choice ISAChoice, count bool) (*scorerSet, error) {
	key := choice.Key()
	var ps []*cpu.Profile
	var err error
	if count {
		ps, err = db.profilesOf(ctx, choice, key)
	} else {
		db.mu.Lock()
		ps = db.profiles[key]
		db.mu.Unlock()
		if ps == nil {
			err = fmt.Errorf("eval: no profile set for %s in the profile tier", key)
		}
	}
	if err != nil {
		return nil, err
	}
	db.mu.Lock()
	s := db.scorerSets[key]
	db.mu.Unlock()
	if s != nil {
		return s, nil
	}
	s = &scorerSet{
		ps:      ps,
		scorers: make([]*perfmodel.Scorer, len(ps)),
		errs:    make([]error, len(ps)),
		tr:      choice.Traits(),
	}
	for r, p := range ps {
		if p != nil {
			s.scorers[r], s.errs[r] = perfmodel.NewScorer(p)
		}
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if prev := db.scorerSets[key]; prev != nil {
		return prev, nil
	}
	db.scorerSets[key] = s
	return s, nil
}

// errQuarantined is the error a region degrades on when its profile is
// quarantined, so that no model evaluation ran.
var errQuarantined = errors.New("eval: region quarantined")

// score is the one per-configuration scoring function: it scores dp on
// every region with s's scorer and, if energy is set, power.Energy (else
// each gets a zero energy and energy result), and hands each region's
// metric and energy result to each. A quarantined region (errQuarantined),
// or one whose model evaluation fails, degrades: each gets its error, a
// placeholder back-derived from the reference so that D =
// refD/speedupPenalty and E*D = edpPenalty*refE*refD, and a zero energy
// result. With a nil ref (the reference itself) any such region is an
// error instead. score counts nothing; see tally.
func (db *DB) score(s *scorerSet, dp DesignPoint, ref []Metric, energy bool, each func(r int, m Metric, en power.EnergyResult, err error)) error {
	for r, p := range s.ps {
		var perf perfmodel.Result
		err := errQuarantined
		if p != nil {
			if err = s.errs[r]; err == nil {
				perf, err = s.scorers[r].Cycles(dp.Cfg)
			}
			if err != nil {
				err = fault.Wrap(fault.StageModel, db.Regions[r].Name, dp.ISA.Key(), err)
			}
		}
		if err != nil {
			if ref == nil {
				if p == nil {
					return fmt.Errorf("eval: reference region %s unavailable", db.Regions[r].Name)
				}
				return err
			}
			each(r, Metric{
				Cycles: ref[r].Cycles / speedupPenalty,
				Energy: ref[r].Energy * edpPenalty * speedupPenalty,
			}, power.EnergyResult{}, err)
			continue
		}
		var en power.EnergyResult
		if energy {
			en = power.Energy(s.tr, dp.Cfg, p, perf)
		}
		each(r, Metric{Cycles: perf.Cycles, Energy: en.Total, Perf: perf}, en, nil)
	}
	return nil
}

// tally counts one region of a fresh score (EvaluateBatch, the reference):
// a model evaluation unless the region is quarantined and, when it
// degraded on err, a degraded region, logged if the model failed.
func (db *DB) tally(dp DesignPoint, r int, err error) {
	if err != errQuarantined {
		db.Stats.ModelEvals.Inc()
	}
	if err == nil {
		return
	}
	if err != errQuarantined {
		db.logf("eval: degrading %s on %s: %v", db.Regions[r].Name, dp, err)
	}
	db.Stats.DegradedRegions.Inc()
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
// speedupPenalty, NormEDP = edpPenalty) instead of failing; with a nil ref
// any failure is an error.
func (db *DB) Evaluate(ctx context.Context, dp DesignPoint, ref []Metric) (*Candidate, error) {
	cs, err := db.EvaluateBatch(ctx, dp.ISA, []cpu.CoreConfig{dp.Cfg}, ref)
	if err != nil {
		return nil, err
	}
	return cs[0], nil
}

// EvaluateBatch evaluates every configuration of one ISA choice in a single
// pass over the choice's scorer set: one profile fetch and one
// perfmodel.Scorer per region, built once per profile set, so the
// configuration-independent terms of the interval model (micro-op mix
// fractions, mispredict volumes, naive stall sums) are computed once
// instead of once per configuration. It is the batch counterpart of
// Evaluate — same candidate cache tier, same degradation policy, same
// stats. TestEvaluateBatchMatchesOracle checks each candidate against its
// composition from perfmodel.Cycles, power.Energy and the normalization
// formulas. The returned slice is indexed like cfgs.
func (db *DB) EvaluateBatch(ctx context.Context, choice ISAChoice, cfgs []cpu.CoreConfig, ref []Metric) ([]*Candidate, error) {
	return db.evaluateBatch(ctx, choice, cfgs, ref, true)
}

// evaluateBatch is EvaluateBatch; with count unset it counts nothing in
// db.Stats (cache outcomes, model evaluations, degraded regions, model
// time), logs nothing and scores from the profile tier alone (see Rescore).
func (db *DB) evaluateBatch(ctx context.Context, choice ISAChoice, cfgs []cpu.CoreConfig, ref []Metric, count bool) ([]*Candidate, error) {
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
		if count {
			db.Stats.CandidateHits.Add(int64(len(cfgs) - len(missing)))
			db.Stats.CandidateMisses.Add(int64(len(missing)))
		}
		if len(missing) == 0 {
			return out, nil
		}
	} else {
		for i := range cfgs {
			missing = append(missing, i)
		}
	}

	s, err := db.scorers(ctx, choice, count)
	if err != nil {
		return nil, err
	}
	n := len(db.Regions)
	modelStart := time.Now()
	for _, i := range missing {
		dp := DesignPoint{ISA: choice, Cfg: cfgs[i]}
		c := &Candidate{
			DP:       dp,
			AreaMM2:  dp.Area(),
			PeakW:    dp.Peak(),
			Speedup:  make([]float64, n),
			NormEDP:  make([]float64, n),
			Degraded: make([]bool, n),
		}
		err := db.score(s, dp, ref, true, func(r int, m Metric, _ power.EnergyResult, err error) {
			if count {
				db.tally(dp, r, err)
			}
			switch {
			case err != nil:
				c.Degraded[r] = true
				c.Speedup[r] = speedupPenalty
				c.NormEDP[r] = edpPenalty
			case ref != nil:
				c.Speedup[r] = ref[r].Cycles / m.Cycles
				c.NormEDP[r] = (m.Energy * m.Cycles) / (ref[r].Energy * ref[r].Cycles)
			}
		})
		if err != nil {
			return nil, err
		}
		if cacheable {
			db.mu.Lock()
			// Existing entries win so concurrent evaluations of one design
			// point converge on a single shared candidate.
			if prev, ok := db.cands[keys[i]]; ok {
				c = prev
			} else {
				db.cands[keys[i]] = c
			}
			db.mu.Unlock()
		}
		out[i] = c
	}
	if count {
		db.Stats.ModelTime.Since(modelStart)
	}
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
