package explore

import (
	"context"
	"math"
	"testing"

	"compisa/internal/code"
	"compisa/internal/compiler"
	"compisa/internal/cpu"
	"compisa/internal/eval"
	"compisa/internal/fault"
	"compisa/internal/mem"
	"compisa/internal/migrate"
	"compisa/internal/perfmodel"
	"compisa/internal/workload"
)

// fig14DB cuts the suite to two regions of two benchmarks; lbm.0 is
// vector code, so its "x86 to microx86" translation is refused.
func fig14DB(t *testing.T, in *fault.Injector) *DB {
	t.Helper()
	db := NewDB()
	db.Inject = in
	var regions []workload.Region
	for _, r := range db.Regions {
		switch r.Name {
		case "astar.0", "lbm.0":
			regions = append(regions, r)
		}
	}
	if len(regions) != 2 {
		t.Fatalf("want 2 regions, found %d", len(regions))
	}
	db.Regions = regions
	return db
}

// fig14Cell is one (case, region) measurement of the direct loop; refused
// marks a translation migrate.Translate refused.
type fig14Cell struct {
	refused            bool
	native, translated float64
}

// fig14Direct is the reference for Fig14DowngradeCost: the serial build →
// compile → translate → profile → score loop, independent of the DB. It
// returns the cells indexed [case][region].
func fig14Direct(t *testing.T, regions []workload.Region) [][]fig14Cell {
	t.Helper()
	cfg := DowngradeEvalConfig()
	ropts := cpu.RunOptions{MaxInstrs: eval.MaxRegionInstrs}
	cycles := func(prog *code.Program, m *mem.Memory) float64 {
		p, _, err := cpu.CollectProfileOpts(prog, m, ropts)
		if err != nil {
			t.Fatal(err)
		}
		res, err := perfmodel.Cycles(p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Cycles
	}
	cells := make([][]fig14Cell, len(Fig14Cases()))
	for ci, dc := range Fig14Cases() {
		cells[ci] = make([]fig14Cell, len(regions))
		for ri, r := range regions {
			f, m, err := r.Build(dc.From.Width)
			if err != nil {
				t.Fatal(err)
			}
			prog, err := compiler.Compile(f, dc.From, compiler.Options{})
			if err != nil {
				t.Fatal(err)
			}
			prog.Name = r.Name
			trans, err := migrate.Translate(prog, dc.To)
			if err != nil {
				cells[ci][ri].refused = true
				continue
			}
			cells[ci][ri] = fig14Cell{native: cycles(prog, m.Clone()), translated: cycles(trans, m)}
		}
	}
	return cells
}

// fig14Sum aggregates direct cells the way Figure 14 does, leaving out the
// regions for which drop holds (as a quarantined native pair is).
func fig14Sum(cells [][]fig14Cell, regions []workload.Region, drop func(r workload.Region, dc DowngradeCase) bool) (map[string]map[string]float64, map[string]int) {
	type agg struct{ native, translated float64 }
	acc := map[string]map[string]*agg{}
	skipped := map[string]int{}
	for ci, dc := range Fig14Cases() {
		for ri, r := range regions {
			c := cells[ci][ri]
			if c.refused {
				skipped[dc.Name]++
				continue
			}
			if drop(r, dc) {
				continue
			}
			if acc[r.Benchmark] == nil {
				acc[r.Benchmark] = map[string]*agg{}
			}
			if acc[r.Benchmark][dc.Name] == nil {
				acc[r.Benchmark][dc.Name] = &agg{}
			}
			a := acc[r.Benchmark][dc.Name]
			a.native += r.Weight * c.native
			a.translated += r.Weight * c.translated
		}
	}
	cost := map[string]map[string]float64{}
	for bench, byCase := range acc {
		cost[bench] = map[string]float64{}
		for name, a := range byCase {
			cost[bench][name] = 100 * (a.translated/a.native - 1)
		}
	}
	return cost, skipped
}

// sameFig14 fails unless got holds exactly the reference's costs, bit for
// bit, and its skip counts.
func sameFig14(t *testing.T, got *Fig14Result, cost map[string]map[string]float64, skipped map[string]int) {
	t.Helper()
	for _, m := range []map[string]map[string]float64{cost, got.CostPct} {
		for bench, byCase := range m {
			for name := range byCase {
				g, w := got.CostPct[bench][name], cost[bench][name]
				if math.Float64bits(g) != math.Float64bits(w) {
					t.Errorf("%s %s: cost %v, direct profiling gives %v", bench, name, g, w)
				}
			}
		}
	}
	for _, m := range []map[string]int{skipped, got.Skipped} {
		for name := range m {
			if got.Skipped[name] != skipped[name] {
				t.Errorf("%s: %d skipped, direct profiling skips %d", name, got.Skipped[name], skipped[name])
			}
		}
	}
}

// TestFig14MatchesDirectProfiling: Figure 14 through the DB's tiers gives
// the bits of the serial direct-profiling loop, a rerun simulates nothing,
// and a quarantined native pair drops its region from the case.
func TestFig14MatchesDirectProfiling(t *testing.T) {
	ctx := context.Background()
	db := fig14DB(t, nil)
	got, err := Fig14DowngradeCost(ctx, db)
	if err != nil {
		t.Fatal(err)
	}
	cells := fig14Direct(t, db.Regions)
	cost, skipped := fig14Sum(cells, db.Regions, func(workload.Region, DowngradeCase) bool { return false })
	if skipped["x86 to microx86"] == 0 {
		t.Fatal("no translation refused; the refusal path is untested")
	}
	sameFig14(t, got, cost, skipped)

	execs := db.Stats.Execs.Load()
	if _, err := Fig14DowngradeCost(ctx, db); err != nil {
		t.Fatal(err)
	}
	if d := db.Stats.Execs.Load() - execs; d != 0 {
		t.Errorf("second run executed %d simulations, want 0", d)
	}

	in := injector(t, fault.Config{Seed: 1, Rate: 0.3, Kinds: []fault.Kind{fault.KindCompile}})
	db = fig14DB(t, in)
	got, err = Fig14DowngradeCost(ctx, db)
	if err != nil {
		t.Fatalf("a quarantined native pair must not fail the run: %v", err)
	}
	quarantined := map[string]bool{}
	for _, q := range db.Coverage().Quarantined {
		quarantined[q.Region+"|"+q.ISA] = true
	}
	drop := func(r workload.Region, dc DowngradeCase) bool {
		return quarantined[r.Name+"|"+ISAChoice{FS: dc.From}.Key()]
	}
	dropped := 0
	for _, dc := range Fig14Cases() {
		for _, r := range db.Regions {
			if drop(r, dc) {
				dropped++
			}
		}
	}
	cost, skipped = fig14Sum(cells, db.Regions, drop)
	if dropped == 0 || len(cost) == 0 {
		t.Fatalf("the injector dropped %d native pairs and left %d benchmarks; pick another seed", dropped, len(cost))
	}
	sameFig14(t, got, cost, skipped)
}

// TestFig14MeanCostPctOrderIndependent: the across-benchmark mean sums in
// benchmark order, so values whose float sum depends on the order (1e16 + 1
// rounds the 1 away; -1e16 + 1e16 + 1 keeps it) give the same bits on every
// call.
func TestFig14MeanCostPctOrderIndependent(t *testing.T) {
	names := workload.Names()
	r := &Fig14Result{CostPct: map[string]map[string]float64{
		names[0]: {"c": 1e16},
		names[1]: {"c": 1},
		names[2]: {"c": -1e16},
	}}
	for i := 0; i < 100; i++ {
		if got := r.MeanCostPct("c"); math.Float64bits(got) != 0 {
			t.Fatalf("call %d: mean %v, want 0 (the sum in benchmark order)", i, got)
		}
	}
}
