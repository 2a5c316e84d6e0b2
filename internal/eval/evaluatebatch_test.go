package eval

import (
	"context"
	"encoding/json"
	"math"
	"reflect"
	"runtime"
	"testing"

	"compisa/internal/cpu"
	"compisa/internal/fault"
	"compisa/internal/perfmodel"
	"compisa/internal/power"
)

// batchCfgs returns a configuration spread that exercises every term the
// Scorer precomputes: both issue disciplines, all predictor organizations,
// both fusion/uop-cache settings, and every profiled cache option.
func batchCfgs() []cpu.CoreConfig {
	base := ReferenceConfig()
	narrow := base
	narrow.Width, narrow.IntALU, narrow.Predictor = 2, 3, cpu.PredGShare
	inord := base
	inord.OoO, inord.Width, inord.Predictor = false, 2, cpu.PredLocal
	inord.UopCache, inord.Fusion = false, false
	bigmem := base
	bigmem.L1I, bigmem.L1D, bigmem.L2 = cpu.L1Cfg64k, cpu.L1Cfg64k, cpu.L2Cfg8M
	tiny := inord
	tiny.Width, tiny.IntALU, tiny.FPALU = 1, 1, 1
	return []cpu.CoreConfig{base, narrow, inord, bigmem, tiny}
}

// rescored returns dp's metrics and per-region errors from DB.EachMetric,
// checking that DB.EachCycles gives the same cycles bit for bit.
func rescored(t *testing.T, db *DB, dp DesignPoint) ([]Metric, []error) {
	t.Helper()
	ctx := context.Background()
	ms := make([]Metric, len(db.Regions))
	errs := make([]error, len(db.Regions))
	err := db.EachMetric(ctx, dp, func(r int, m Metric, _ power.EnergyResult, err error) {
		ms[r], errs[r] = m, err
	})
	if err != nil {
		t.Fatal(err)
	}
	err = db.EachCycles(ctx, dp, func(r int, cycles float64) {
		if math.Float64bits(cycles) != math.Float64bits(ms[r].Cycles) {
			t.Errorf("%s region %d: EachCycles gives %v cycles, EachMetric %v", dp, r, cycles, ms[r].Cycles)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return ms, errs
}

// TestEvaluateBatchMatchesOracle: every candidate EvaluateBatch returns, and
// the metrics DB.EachMetric rescores for it, must equal their composition from
// the public pieces, down to the float bit pattern: perfmodel.Cycles per
// region, power.Energy on that prediction, speedup and normalized EDP
// against the reference, and the design point's area and peak power.
func TestEvaluateBatchMatchesOracle(t *testing.T) {
	db := smallDB(3, nil)
	ctx := context.Background()
	ref, err := db.ReferenceMetrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	cfgs := batchCfgs()
	for _, choice := range []ISAChoice{X8664Choice(), injectable(t)} {
		batch, err := db.EvaluateBatch(ctx, choice, cfgs, ref)
		if err != nil {
			t.Fatal(err)
		}
		ps, err := db.Profiles(ctx, choice)
		if err != nil {
			t.Fatal(err)
		}
		for i, cfg := range cfgs {
			dp := DesignPoint{ISA: choice, Cfg: cfg}
			got := batch[i]
			ms, errs := rescored(t, db, dp)
			if got.AreaMM2 != dp.Area() || got.PeakW != dp.Peak() {
				t.Errorf("%s cfg %d: area/peak %v/%v, want %v/%v",
					choice.Key(), i, got.AreaMM2, got.PeakW, dp.Area(), dp.Peak())
			}
			for r, p := range ps {
				perf, err := perfmodel.Cycles(p, cfg)
				if err != nil {
					t.Fatal(err)
				}
				en := power.Energy(choice.Traits(), cfg, p, perf)
				want := Metric{Cycles: perf.Cycles, Energy: en.Total, Perf: perf}
				if ms[r] != want || errs[r] != nil {
					t.Errorf("%s cfg %d region %d: metric %+v (%v), want %+v", choice.Key(), i, r, ms[r], errs[r], want)
				}
				speedup := ref[r].Cycles / perf.Cycles
				edp := (en.Total * perf.Cycles) / (ref[r].Energy * ref[r].Cycles)
				if got.Speedup[r] != speedup || got.NormEDP[r] != edp || got.Degraded[r] {
					t.Errorf("%s cfg %d region %d: speedup/EDP/degraded %v/%v/%v, want %v/%v/false",
						choice.Key(), i, r, got.Speedup[r], got.NormEDP[r], got.Degraded[r], speedup, edp)
				}
			}
		}
	}
}

// TestEvaluateBatchMatchesOracleDegraded: with every non-reference compile
// quarantined, each region of each candidate degrades to the quarantine
// penalties, and DB.EachMetric gives it placeholder metrics back-derived from
// the reference so that D = refD/speedupPenalty and E*D =
// edpPenalty*refE*refD.
func TestEvaluateBatchMatchesOracleDegraded(t *testing.T) {
	in := injector(t, fault.Config{Seed: 11, Rate: 1, Kinds: []fault.Kind{fault.KindCompile}})
	db := smallDB(2, in)
	ctx := context.Background()
	ref, err := db.ReferenceMetrics(ctx) // reference ISA is injection-exempt
	if err != nil {
		t.Fatal(err)
	}
	cfgs := batchCfgs()[:2]
	batch, err := db.EvaluateBatch(ctx, injectable(t), cfgs, ref)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range batch {
		ms, errs := rescored(t, db, c.DP)
		for r := range ref {
			want := Metric{
				Cycles: ref[r].Cycles / speedupPenalty,
				Energy: ref[r].Energy * edpPenalty * speedupPenalty,
			}
			if !c.Degraded[r] || c.Speedup[r] != speedupPenalty || c.NormEDP[r] != edpPenalty || ms[r] != want || errs[r] != errQuarantined {
				t.Errorf("cfg %d region %d: degraded %v speedup %v EDP %v metric %+v (%v); want true %v %v %+v (%v)",
					i, r, c.Degraded[r], c.Speedup[r], c.NormEDP[r], ms[r], errs[r], speedupPenalty, edpPenalty, want, errQuarantined)
			}
		}
	}
}

// TestRescoreCountsNothing: rescoring evaluated points, degraded ones
// included, leaves db.Stats unchanged and logs nothing; the fresh scores
// counted one model evaluation per live region and one degraded region per
// quarantined one.
func TestRescoreCountsNothing(t *testing.T) {
	in := injector(t, fault.Config{Seed: 11, Rate: 1, Kinds: []fault.Kind{fault.KindCompile}})
	db := smallDB(2, in)
	logs := 0
	db.Log = func(string, ...any) { logs++ }
	ctx := context.Background()
	ref, err := db.ReferenceMetrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	cfgs := batchCfgs()
	var cs []*Candidate
	for _, choice := range []ISAChoice{X8664Choice(), injectable(t)} {
		batch, err := db.EvaluateBatch(ctx, choice, cfgs, ref)
		if err != nil {
			t.Fatal(err)
		}
		cs = append(cs, batch...)
	}
	before, logsBefore := db.Stats.Snapshot(), logs
	n := int64(len(db.Regions) * len(cfgs))
	if before.ModelEvals != n+int64(len(db.Regions)) || before.DegradedRegions != n {
		t.Fatalf("fresh scores counted %d model evals and %d degraded regions, want %d and %d",
			before.ModelEvals, before.DegradedRegions, n+int64(len(db.Regions)), n)
	}
	for _, c := range cs {
		rescored(t, db, c.DP)
	}
	if after := db.Stats.Snapshot(); !reflect.DeepEqual(after, before) {
		t.Errorf("rescoring moved db.Stats:\n got %+v\nwant %+v", after, before)
	}
	if logs != logsBefore {
		t.Errorf("rescoring logged %d lines", logs-logsBefore)
	}
}

// TestCandidateFootprint: with profiles loaded, a fresh candidate costs
// EvaluateBatch at most 2 KB of allocation at 49 regions, so per-region
// metrics cannot creep back into the candidate tier. The 49-region profile
// sets repeat three profiled regions, which scores like any other set.
func TestCandidateFootprint(t *testing.T) {
	ctx := context.Background()
	small := smallDB(3, nil)
	choices := []ISAChoice{X8664Choice(), injectable(t)}
	rec := profileRecord{Profiles: map[string][]*cpu.Profile{}}
	db := NewDB()
	for _, c := range choices {
		ps, err := small.Profiles(ctx, c)
		if err != nil {
			t.Fatal(err)
		}
		full := make([]*cpu.Profile, len(db.Regions))
		for r := range full {
			full[r] = ps[r%len(ps)]
		}
		rec.Profiles[c.Key()] = full
	}
	data, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.ImportRecord(data); err != nil {
		t.Fatal(err)
	}
	ref, err := db.ReferenceMetrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var cfgs []cpu.CoreConfig
	for _, c := range batchCfgs() {
		for rob := 16; rob <= 256; rob += 8 {
			c.ROB = rob
			cfgs = append(cfgs, c)
		}
	}
	// The first batch builds the choice's scorers; the measured one only
	// scores fresh points.
	if _, err := db.EvaluateBatch(ctx, choices[1], cfgs[:1], ref); err != nil {
		t.Fatal(err)
	}
	cfgs = cfgs[1:]
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cs, err := db.EvaluateBatch(ctx, choices[1], cfgs, ref)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if len(cs[0].Speedup) != 49 {
		t.Fatalf("candidate over %d regions, want 49", len(cs[0].Speedup))
	}
	per := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(cfgs))
	t.Logf("%.0f bytes allocated per fresh candidate (%d candidates)", per, len(cfgs))
	if per > 2048 {
		t.Errorf("%.0f bytes allocated per fresh candidate, want <= 2048", per)
	}
}
