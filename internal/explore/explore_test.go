package explore

import (
	"context"
	"strings"
	"sync"
	"testing"

	"compisa/internal/isa"
)

var (
	sharedOnce sync.Once
	sharedDB   *DB
	sharedS    *Searcher
	sharedErr  error
)

func searcher(t *testing.T) (*DB, *Searcher) {
	t.Helper()
	sharedOnce.Do(func() {
		sharedDB = NewDB()
		sharedS, sharedErr = NewSearcher(context.Background(), sharedDB)
	})
	if sharedErr != nil {
		t.Fatal(sharedErr)
	}
	return sharedDB, sharedS
}

func TestConfigsSpace(t *testing.T) {
	cfgs := Configs()
	if len(cfgs) != 180 {
		t.Fatalf("config space has %d entries, paper prunes to 180", len(cfgs))
	}
	seen := map[string]bool{}
	for _, c := range cfgs {
		if err := c.Validate(); err != nil {
			t.Errorf("%s: %v", c.Name(), err)
		}
		if seen[c.Name()] {
			t.Errorf("duplicate config %s", c.Name())
		}
		seen[c.Name()] = true
	}
}

func TestDesignPointCount(t *testing.T) {
	n := len(CompositeChoices()) * len(Configs())
	if n != 4680 {
		t.Fatalf("design space has %d points, paper sweeps 4680", n)
	}
}

func TestPowerAreaRanges(t *testing.T) {
	minA, maxA, minP, maxP := 1e9, 0.0, 1e9, 0.0
	for _, ch := range CompositeChoices() {
		for _, cfg := range Configs() {
			dp := DesignPoint{ISA: ch, Cfg: cfg}
			a, p := dp.Area(), dp.Peak()
			if a < minA {
				minA = a
			}
			if a > maxA {
				maxA = a
			}
			if p < minP {
				minP = p
			}
			if p > maxP {
				maxP = p
			}
		}
	}
	// Paper: 4.8-23.4 W per core, 9.4-28.6 mm2. Calibration targets the
	// same span (per-core peak excludes the shared L2).
	if minA < 8 || minA > 11 || maxA < 25 || maxA > 33 {
		t.Errorf("area range %.1f-%.1f mm2 off the paper's 9.4-28.6", minA, maxA)
	}
	if minP < 3.8 || minP > 5.5 || maxP < 18 || maxP > 26 {
		t.Errorf("peak range %.1f-%.1f W off the paper's 4.8-23.4", minP, maxP)
	}
}

func TestOrganizationOrderingUnlimited(t *testing.T) {
	if testing.Short() {
		t.Skip("search suite in long mode only")
	}
	if raceEnabled {
		t.Skip("full-suite search too slow under the race detector; TestFault* covers concurrency")
	}
	_, s := searcher(t)
	scores := map[Organization]float64{}
	for _, org := range Organizations() {
		cmp, err := s.Search(context.Background(), org, ObjMPThroughput, Budget{})
		if err != nil {
			t.Fatalf("%v: %v", org, err)
		}
		scores[org] = cmp.Score
	}
	// The paper's headline ordering: composite-full >= hetero-vendor ~
	// composite-fixed > single-ISA hetero >= homogeneous.
	if scores[OrgCompositeFull] < scores[OrgHeteroVendor] {
		t.Errorf("composite-full (%.3f) must match/beat the vendor baseline (%.3f)",
			scores[OrgCompositeFull], scores[OrgHeteroVendor])
	}
	if scores[OrgCompositeFull] < scores[OrgSingleISAHetero]*1.05 {
		t.Errorf("composite-full (%.3f) must clearly beat single-ISA heterogeneity (%.3f)",
			scores[OrgCompositeFull], scores[OrgSingleISAHetero])
	}
	if scores[OrgSingleISAHetero] < scores[OrgHomogeneous] {
		t.Errorf("hardware heterogeneity must not lose to homogeneous")
	}
	if scores[OrgCompositeFixed] < scores[OrgSingleISAHetero] {
		t.Errorf("x86-ized fixed sets (%.3f) must beat single-ISA (%.3f)",
			scores[OrgCompositeFixed], scores[OrgSingleISAHetero])
	}
}

func TestSearchRespectsBudgets(t *testing.T) {
	if testing.Short() {
		t.Skip("search suite in long mode only")
	}
	if raceEnabled {
		t.Skip("full-suite search too slow under the race detector; TestFault* covers concurrency")
	}
	_, s := searcher(t)
	cmp, err := s.Search(context.Background(), OrgCompositeFull, ObjMPThroughput, Budget{PeakW: 40})
	if err != nil {
		t.Fatal(err)
	}
	if cmp.TotalPeak() > 40 {
		t.Errorf("40W budget violated: %.1fW", cmp.TotalPeak())
	}
	cmp2, err := s.Search(context.Background(), OrgCompositeFull, ObjMPThroughput, Budget{AreaMM2: 48})
	if err != nil {
		t.Fatal(err)
	}
	if cmp2.TotalArea() > 48 {
		t.Errorf("48mm2 budget violated: %.1fmm2", cmp2.TotalArea())
	}
	// Single-thread budgets constrain the single powered core.
	st, err := s.Search(context.Background(), OrgCompositeFull, ObjSTPerf, Budget{PeakW: 10})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range st.Cores {
		if c.PeakW > 10 {
			t.Errorf("ST 10W budget violated by core at %.1fW", c.PeakW)
		}
	}
}

func TestSearchDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("search suite in long mode only")
	}
	_, s := searcher(t)
	a, err := s.Search(context.Background(), OrgCompositeFixed, ObjMPThroughput, Budget{AreaMM2: 64})
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Search(context.Background(), OrgCompositeFixed, ObjMPThroughput, Budget{AreaMM2: 64})
	if err != nil {
		t.Fatal(err)
	}
	if a.Score != b.Score {
		t.Errorf("search nondeterministic: %.6f vs %.6f", a.Score, b.Score)
	}
}

// TestSec3FormatRerunIdentical: sec3 reruns on one warm DB print
// byte-identical text. Its totals once summed over a Go map, whose random
// order let "depth 32->16: branches (remat)" print +0.0% or -0.0%.
func TestSec3FormatRerunIdentical(t *testing.T) {
	db, _ := searcher(t)
	var first string
	for i := 0; i < 50; i++ {
		d, err := Sec3CodegenDeltas(context.Background(), db)
		if err != nil {
			t.Fatal(err)
		}
		got := d.Format()
		if i == 0 {
			first = got
		} else if got != first {
			t.Fatalf("rerun %d differs:\n%s\nfirst run:\n%s", i, got, first)
		}
	}
}

// TestFig15FormatRowOrder: the per-kind downgrade rows print in a fixed
// order, not in the order of a map walk.
func TestFig15FormatRowOrder(t *testing.T) {
	r := &Fig15Result{DowngradesByKind: map[string]int{"simd": 22, "predication": 16, "instruction complexity": 22}}
	want := "    downgrade instruction complexity   22\n" +
		"    downgrade predication              16\n" +
		"    downgrade simd                     22\n"
	for i := 0; i < 20; i++ {
		if got := r.Format(); !strings.HasSuffix(got, want) {
			t.Fatalf("rows out of order:\n%s", got)
		}
	}
}

func TestSec3DeltaSigns(t *testing.T) {
	db, _ := searcher(t)
	d, err := Sec3CodegenDeltas(context.Background(), db)
	if err != nil {
		t.Fatal(err)
	}
	if d.DepthLoadsPct <= 0 || d.DepthStoresPct <= 0 {
		t.Errorf("halving register depth must add spill traffic: loads %+.1f%% stores %+.1f%%",
			d.DepthLoadsPct, d.DepthStoresPct)
	}
	if d.PredBranchPct >= 0 {
		t.Errorf("full predication must remove branches: %+.1f%%", d.PredBranchPct)
	}
	if d.PredInstrPct <= 0 {
		t.Errorf("if-conversion must add dynamic micro-ops: %+.1f%%", d.PredInstrPct)
	}
	if d.MicroMemRefPct <= 0 || d.MicroUopPct <= 0 {
		t.Errorf("microx86-8D must expand memory refs and micro-ops: %+.1f%% / %+.1f%%",
			d.MicroMemRefPct, d.MicroUopPct)
	}
	if d.SupersetLoadsPct >= 0 {
		t.Errorf("superset must eliminate loads vs x86-64: %+.1f%%", d.SupersetLoadsPct)
	}
	if d.SupersetBranchPct >= 0 {
		t.Errorf("superset must eliminate branches vs x86-64: %+.1f%%", d.SupersetBranchPct)
	}
}

func TestFig2Shape(t *testing.T) {
	db, _ := searcher(t)
	f, err := Fig2InstructionMix(context.Background(), db)
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range f.MicroX86 {
		if f.X8664[i].Uops != 1.0 {
			t.Errorf("baseline must normalize to 1.0")
		}
		if row.Uops < 1.0 {
			t.Errorf("%s: microx86-8D should not shrink the micro-op count (%.2f)", row.Benchmark, row.Uops)
		}
	}
	// hmmer is the register-pressure benchmark: its microx86-8D load
	// expansion should be visible.
	for _, row := range f.MicroX86 {
		if row.Benchmark == "hmmer" && row.Loads < 1.02 {
			t.Errorf("hmmer under depth 8 should show refill loads: %.2f", row.Loads)
		}
	}
}

func TestVendorProfilesApplyTraits(t *testing.T) {
	db, _ := searcher(t)
	thumb := VendorChoices()[2]
	if thumb.Vendor.Name != "Thumb" {
		t.Fatalf("unexpected vendor order")
	}
	tp, err := db.Profiles(context.Background(), thumb)
	if err != nil {
		t.Fatal(err)
	}
	xp, err := db.Profiles(context.Background(), ISAChoice{FS: thumb.FS})
	if err != nil {
		t.Fatal(err)
	}
	denser := 0
	for i := range tp {
		if tp[i].CodeBytes < xp[i].CodeBytes {
			denser++
		}
	}
	if denser < len(tp)*9/10 {
		t.Errorf("Thumb code density must shrink code footprints (%d/%d)", denser, len(tp))
	}
}

func TestScheduleMPInstrumentation(t *testing.T) {
	if testing.Short() {
		t.Skip("search suite in long mode only")
	}
	if raceEnabled {
		t.Skip("full-suite search too slow under the race detector; TestFault* covers concurrency")
	}
	db, s := searcher(t)
	cmp, err := s.Search(context.Background(), OrgCompositeFull, ObjMPThroughput, Budget{AreaMM2: 64})
	if err != nil {
		t.Fatal(err)
	}
	si := newSuiteIndex(db.Regions)
	st := si.scheduleMP(&cmp.Cores, db.Regions, nil)
	if st.Steps == 0 || st.Throughput <= 0 {
		t.Fatal("schedule produced no steps")
	}
	if len(st.TimeByBenchCore) != 8 {
		t.Errorf("schedule must visit all 8 benchmarks, got %d", len(st.TimeByBenchCore))
	}
	// Both walk si.steps and sum in the same order, so they agree exactly.
	if st.Throughput != cmp.Score {
		t.Errorf("instrumented schedule (%v) must match the scoring schedule (%v)",
			st.Throughput, cmp.Score)
	}
}

func TestFig9ConstraintsCover(t *testing.T) {
	cs := Fig9Constraints()
	if len(cs) != 10 {
		t.Fatalf("Figure 9 has 10 constrained searches, got %d", len(cs))
	}
	// Each constraint must keep at least one feature set.
	for _, fc := range cs {
		kept := 0
		for _, fs := range isa.Derive() {
			c := &Candidate{DP: DesignPoint{ISA: ISAChoice{FS: fs}}}
			if fc.Keep(c) {
				kept++
			}
		}
		if kept == 0 {
			t.Errorf("constraint %q keeps no feature sets", fc.Name)
		}
	}
}

func TestReferenceMetrics(t *testing.T) {
	db, _ := searcher(t)
	ref, err := db.ReferenceMetrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(ref) != 49 {
		t.Fatalf("reference metrics for %d regions", len(ref))
	}
	for i, m := range ref {
		if m.Cycles <= 0 || m.Energy <= 0 {
			t.Errorf("region %d: degenerate reference %+v", i, m)
		}
	}
}
