package eval

import (
	"context"
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

// TestEvaluateBatchMatchesOracle: every candidate EvaluateBatch returns must
// equal its composition from the public pieces, down to the float bit
// pattern: perfmodel.Cycles per region, power.Energy on that prediction,
// speedup and normalized EDP against the reference, and the design point's
// area and peak power.
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
				if got.M[r] != want {
					t.Errorf("%s cfg %d region %d: metric %+v, want %+v", choice.Key(), i, r, got.M[r], want)
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
// penalties, with placeholder metrics back-derived from the reference so
// that D = refD/speedupPenalty and E*D = edpPenalty*refE*refD.
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
		for r := range ref {
			want := Metric{
				Cycles: ref[r].Cycles / speedupPenalty,
				Energy: ref[r].Energy * edpPenalty * speedupPenalty,
			}
			if !c.Degraded[r] || c.Speedup[r] != speedupPenalty || c.NormEDP[r] != edpPenalty || c.M[r] != want {
				t.Errorf("cfg %d region %d: degraded %v speedup %v EDP %v metric %+v; want true %v %v %+v",
					i, r, c.Degraded[r], c.Speedup[r], c.NormEDP[r], c.M[r], speedupPenalty, edpPenalty, want)
			}
		}
	}
}
