package explore

import (
	"context"
	"fmt"
	"strings"

	"compisa/internal/cpu"
	"compisa/internal/isa"
	"compisa/internal/perfmodel"
	"compisa/internal/workload"
)

// DowngradeCase is one Figure 14 category: code compiled for From running,
// after binary translation, on a core implementing To.
type DowngradeCase struct {
	Name string
	From isa.FeatureSet
	To   isa.FeatureSet
}

// Fig14Cases enumerates the downgrade categories of Figure 14.
func Fig14Cases() []DowngradeCase {
	u := func(w, d int, p isa.Predication) isa.FeatureSet {
		return isa.MustNew(isa.MicroX86, w, d, p)
	}
	return []DowngradeCase{
		{"x86-64 to x86-32 (width)", u(64, 32, isa.PartialPredication), u(32, 32, isa.PartialPredication)},
		{"64 to 32 registers", u(32, 64, isa.PartialPredication), u(32, 32, isa.PartialPredication)},
		{"64 to 16 registers", u(32, 64, isa.PartialPredication), u(32, 16, isa.PartialPredication)},
		{"64 to 8 registers", u(32, 64, isa.PartialPredication), u(32, 8, isa.PartialPredication)},
		{"32 to 16 registers", u(32, 32, isa.PartialPredication), u(32, 16, isa.PartialPredication)},
		{"32 to 8 registers", u(32, 32, isa.PartialPredication), u(32, 8, isa.PartialPredication)},
		{"x86 to microx86", isa.MustNew(isa.FullX86, 64, 16, isa.PartialPredication), u(64, 16, isa.PartialPredication)},
		{"full to partial predication", u(32, 32, isa.FullPredication), u(32, 32, isa.PartialPredication)},
	}
}

// Fig14Result holds per-(benchmark, case) downgrade costs as slowdown
// percentages (negative = speedup).
type Fig14Result struct {
	Cases   []DowngradeCase
	CostPct map[string]map[string]float64 // bench -> case name -> %
	// Skipped counts regions excluded from a case (vector code is never
	// scheduled onto SIMD-less cores, matching the paper's scheduler).
	Skipped map[string]int
}

// DowngradeEvalConfig is the core every Figure 14 measurement runs on: a
// mid-range out-of-order configuration.
func DowngradeEvalConfig() cpu.CoreConfig {
	return cpu.CoreConfig{
		OoO: true, Width: 2, Predictor: cpu.PredTournament,
		IQ: 32, ROB: 64, PRFInt: 96, PRFFP: 64,
		IntALU: 3, IntMul: 1, FPALU: 2, LSQ: 16,
		L1I: cpu.L1Cfg32k, L1D: cpu.L1Cfg32k, L2: cpu.L2Cfg4M,
		UopCache: true, Fusion: true,
	}
}

// Fig14DowngradeCost measures feature-downgrade emulation cost: the DB's
// profiles for the case's source feature set and their binary translations
// to the target are scored on the same core configuration. A region whose
// native (region, source) pair is quarantined is left out of that case.
func Fig14DowngradeCost(ctx context.Context, db *DB) (*Fig14Result, error) {
	res := &Fig14Result{
		Cases:   Fig14Cases(),
		CostPct: map[string]map[string]float64{},
		Skipped: map[string]int{},
	}
	cfg := DowngradeEvalConfig()
	for _, dc := range res.Cases {
		natives, err := db.Profiles(ctx, ISAChoice{FS: dc.From})
		if err != nil {
			return nil, err
		}
		trans, err := db.TranslatedProfiles(ctx, dc.From, dc.To)
		if err != nil {
			return nil, err
		}
		acc := map[string]*[2]float64{} // bench -> weighted native, translated cycles
		for i, r := range db.Regions {
			if trans[i] == nil {
				// Vector code on SIMD-less targets: scheduler avoidance.
				res.Skipped[dc.Name]++
				continue
			}
			if natives[i] == nil {
				continue
			}
			nat, err := perfmodel.Cycles(natives[i], cfg)
			if err != nil {
				return nil, err
			}
			tr, err := perfmodel.Cycles(trans[i], cfg)
			if err != nil {
				return nil, err
			}
			a := acc[r.Benchmark]
			if a == nil {
				a = new([2]float64)
				acc[r.Benchmark] = a
			}
			a[0] += r.Weight * nat.Cycles
			a[1] += r.Weight * tr.Cycles
		}
		for bench, a := range acc {
			if res.CostPct[bench] == nil {
				res.CostPct[bench] = map[string]float64{}
			}
			res.CostPct[bench][dc.Name] = 100 * (a[1]/a[0] - 1)
		}
	}
	return res, nil
}

// MeanCostPct returns the across-benchmark mean cost of a case, summed in
// workload.Names() order so the result does not depend on map order.
func (r *Fig14Result) MeanCostPct(caseName string) float64 {
	s, n := 0.0, 0
	for _, b := range workload.Names() {
		if v, ok := r.CostPct[b][caseName]; ok {
			s += v
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return s / float64(n)
}

// Format renders Figure 14.
func (r *Fig14Result) Format() string {
	var sb strings.Builder
	sb.WriteString("Figure 14: feature downgrade cost (slowdown %, negative = speedup)\n")
	fmt.Fprintf(&sb, "  %-28s", "case")
	for _, b := range workload.Names() {
		fmt.Fprintf(&sb, " %7s", b)
	}
	fmt.Fprintf(&sb, " %7s\n", "mean")
	for _, dc := range r.Cases {
		fmt.Fprintf(&sb, "  %-28s", dc.Name)
		for _, b := range workload.Names() {
			if v, ok := r.CostPct[b][dc.Name]; ok {
				fmt.Fprintf(&sb, " %+6.1f%%", v)
			} else {
				fmt.Fprintf(&sb, " %7s", "-")
			}
		}
		fmt.Fprintf(&sb, " %+6.1f%%\n", r.MeanCostPct(dc.Name))
	}
	return sb.String()
}

// Fig15Result compares multi-programmed throughput with and without
// migration/downgrade costs (Figure 15), including the migration census.
type Fig15Result struct {
	Budget Budget
	// Scores relative to the no-cost composite design.
	WithoutCost      float64
	WithCost         float64
	DegradationPct   float64
	Migrations       int
	DowngradeSteps   int
	DowngradesByKind map[string]int
	Steps            int
}

// migrationPenaltyCycles is the fixed per-migration cost (state transfer +
// cache warmup), amortized over a SimPoint-scale interval; it is tiny by
// construction, matching the paper's overlapping-feature-set design goal.
const migrationPenaltyFrac = 0.002

// Fig15MigrationOverhead runs the contention schedule on the composite
// MP-throughput design with each application pinned to one compiled binary
// (its most-preferred feature set on that CMP), charging binary-translation
// downgrade costs (from Figure 14) and per-migration costs.
func (s *Searcher) Fig15MigrationOverhead(ctx context.Context, budget Budget, costs *Fig14Result) (*Fig15Result, error) {
	cmp, err := s.Search(ctx, OrgCompositeFull, ObjMPThroughput, budget)
	if err != nil {
		return nil, err
	}
	regions := s.DB.Regions

	// Per-benchmark binary feature set: the CMP feature set the benchmark
	// prefers most often (by weighted best-core selection).
	binFS := map[string]isa.FeatureSet{}
	{
		votes := map[string]map[string]float64{}
		fsByKey := map[string]isa.FeatureSet{}
		for ri, r := range regions {
			best := 0
			for k := 1; k < 4; k++ {
				if cmp.Cores[k].Speedup[ri] > cmp.Cores[best].Speedup[ri] {
					best = k
				}
			}
			key := cmp.Cores[best].DP.ISA.Key()
			fsByKey[key] = cmp.Cores[best].DP.ISA.FS
			if votes[r.Benchmark] == nil {
				votes[r.Benchmark] = map[string]float64{}
			}
			votes[r.Benchmark][key] += r.Weight
		}
		for bench, v := range votes {
			// Sorted keys: a tie goes to the lowest key, not to map order.
			bestKey, bestW := "", -1.0
			for _, k := range sortedKeys(v) {
				if v[k] > bestW {
					bestKey, bestW = k, v[k]
				}
			}
			binFS[bench] = fsByKey[bestKey]
		}
	}

	// Downgrade penalty per (benchmark, from, to): product over downgrade
	// kinds of (1 + kind cost) using the per-benchmark Figure 14 costs.
	kindCase := map[isa.DowngradeKind]string{
		isa.DowngradeWidth:       "x86-64 to x86-32 (width)",
		isa.DowngradeComplexity:  "x86 to microx86",
		isa.DowngradePredication: "full to partial predication",
	}
	depthCase := func(from, to int) string {
		switch {
		case from == 64 && to >= 32:
			return "64 to 32 registers"
		case from == 64 && to >= 16:
			return "64 to 16 registers"
		case from == 64:
			return "64 to 8 registers"
		case to >= 16:
			return "32 to 16 registers"
		default:
			return "32 to 8 registers"
		}
	}
	penalty := func(bench string, from, to isa.FeatureSet) float64 {
		f := 1.0
		for _, k := range isa.Downgrades(from, to) {
			var name string
			if k == isa.DowngradeDepth {
				name = depthCase(from.Depth, to.Depth)
			} else if k == isa.DowngradeSIMD {
				// Vector regions run their precompiled scalar version;
				// the candidate's own profile already is that version.
				continue
			} else {
				name = kindCase[k]
			}
			c := costs.CostPct[bench][name] / 100
			if c < 0 {
				c = 0
			}
			f *= 1 + c
		}
		return f
	}

	// Baseline: contention schedule without costs.
	cyc, err := coreCycles(ctx, s.DB, &cmp.Cores)
	if err != nil {
		return nil, err
	}
	base := s.si.scheduleMP(&cmp.Cores, cyc, regions, nil)

	// With costs: each thread's performance on a core is its binary's
	// speedup on that core's microarchitecture (one candidate batch per
	// distinct binary), scaled by downgrade penalties unless the pair is
	// quarantined; migrations charge a fixed fraction.
	cfgs := make([]cpu.CoreConfig, 4)
	for k := range cfgs {
		cfgs[k] = cmp.Cores[k].DP.Cfg
	}
	bins := map[isa.FeatureSet][]*Candidate{}
	adj := make([][4]float64, len(regions))
	for ri, r := range regions {
		bFS := binFS[r.Benchmark]
		cs, ok := bins[bFS]
		if !ok {
			cs, err = s.DB.EvaluateBatch(ctx, ISAChoice{FS: bFS}, cfgs, s.Reference())
			if err != nil {
				return nil, err
			}
			bins[bFS] = cs
		}
		for k := 0; k < 4; k++ {
			sp := cs[k].Speedup[ri]
			coreFS := cmp.Cores[k].DP.ISA.FS
			if !cs[k].Degraded[ri] && !coreFS.Subsumes(bFS) {
				sp /= penalty(r.Benchmark, bFS, coreFS)
			}
			adj[ri][k] = sp
		}
	}
	// NOTE: the hook is evaluated for every permutation trial; the census
	// must only count committed assignments, so it is taken in a second
	// pass over the committed schedule (TimeByBenchCore tracks commits).
	withCost := s.si.scheduleMP(&cmp.Cores, cyc, regions, func(th, region, core int, _ float64, migrated bool) float64 {
		sp := adj[region][core]
		if migrated {
			sp *= 1 - migrationPenaltyFrac
		}
		return sp
	})
	downgradeSteps := 0
	kindCount := map[string]int{}
	for bench, byCore := range withCost.TimeByBenchCore {
		for core, t := range byCore {
			coreFS := cmp.Cores[core].DP.ISA.FS
			if t == 0 || coreFS.Subsumes(binFS[bench]) {
				continue
			}
			downgradeSteps++
			for _, k := range isa.Downgrades(binFS[bench], coreFS) {
				kindCount[k.String()]++
			}
		}
	}
	return &Fig15Result{
		Budget:           budget,
		WithoutCost:      base.Throughput,
		WithCost:         withCost.Throughput,
		DegradationPct:   100 * (1 - withCost.Throughput/base.Throughput),
		Migrations:       withCost.Migrations,
		DowngradeSteps:   downgradeSteps,
		DowngradesByKind: kindCount,
		Steps:            withCost.Steps,
	}, nil
}

// Format renders Figure 15's summary.
func (r *Fig15Result) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 15: multi-programmed throughput with migration cost (%s)\n", r.Budget)
	fmt.Fprintf(&sb, "  composite (idealized compilation): %.4f\n", r.WithoutCost)
	fmt.Fprintf(&sb, "  composite with migration cost:     %.4f (%.2f%% degradation; paper: 0.42%% avg)\n",
		r.WithCost, r.DegradationPct)
	fmt.Fprintf(&sb, "  schedule: %d steps, %d migrations, %d downgraded intervals\n",
		r.Steps, r.Migrations, r.DowngradeSteps)
	// Sorted: map order would reorder the rows across reruns.
	for _, k := range sortedKeys(r.DowngradesByKind) {
		fmt.Fprintf(&sb, "    downgrade %-24s %d\n", k, r.DowngradesByKind[k])
	}
	return sb.String()
}
