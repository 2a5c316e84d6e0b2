package explore

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"testing"

	"compisa/internal/workload"
)

func TestSuiteIndexShape(t *testing.T) {
	si := newSuiteIndex(workload.Regions())
	if len(si.benchRegions) != 8 {
		t.Fatalf("expected 8 benchmarks, got %d", len(si.benchRegions))
	}
	if len(si.mixes) != 70 {
		t.Errorf("C(8,4) = 70 mixes, got %d", len(si.mixes))
	}
	if len(si.perms) != 24 {
		t.Errorf("4! = 24 permutations, got %d", len(si.perms))
	}
	total := 0
	for _, rs := range si.benchRegions {
		total += len(rs)
	}
	if total != 49 {
		t.Errorf("suite index covers %d regions, want 49", total)
	}
	// Weights normalized per benchmark.
	for bi, ws := range si.weights {
		sum := 0.0
		for _, w := range ws {
			sum += w
		}
		if sum < 0.999 || sum > 1.001 {
			t.Errorf("benchmark %d weights sum to %f", bi, sum)
		}
	}
}

// fakeCandidate builds a candidate with uniform speedup/EDP values.
func fakeCandidate(n int, speedup, edp, peak, area float64) *Candidate {
	c := &Candidate{PeakW: peak, AreaMM2: area,
		Speedup: make([]float64, n), NormEDP: make([]float64, n), M: make([]Metric, n)}
	for i := 0; i < n; i++ {
		c.Speedup[i] = speedup
		c.NormEDP[i] = edp
		c.M[i] = Metric{Cycles: 1000 / speedup, Energy: edp}
	}
	return c
}

func TestScoreMPUniformCores(t *testing.T) {
	regions := workload.Regions()
	si := newSuiteIndex(regions)
	c := fakeCandidate(len(regions), 2.0, 0.5, 10, 12)
	cores := [4]*Candidate{c, c, c, c}
	if got := si.scoreMP(&cores, false); got < 1.999 || got > 2.001 {
		t.Errorf("uniform speedup 2.0 must score 2.0, got %f", got)
	}
	if got := si.scoreMP(&cores, true); got < -0.501 || got > -0.499 {
		t.Errorf("uniform EDP 0.5 must score -0.5, got %f", got)
	}
}

func TestScoreMPOptimalAssignment(t *testing.T) {
	regions := workload.Regions()
	n := len(regions)
	si := newSuiteIndex(regions)
	// One specialist core that is 10x on exactly one region per step and
	// 1x elsewhere; three 2x generalists. The scheduler must route the
	// matching thread to the specialist whenever it helps.
	gen := fakeCandidate(n, 2.0, 0.5, 10, 12)
	spec := fakeCandidate(n, 1.0, 1.0, 10, 12)
	for i := 0; i < n; i += 7 {
		spec.Speedup[i] = 10
	}
	cores := [4]*Candidate{spec, gen, gen, gen}
	got := si.scoreMP(&cores, false)
	// Lower bound: generalists alone would give (3*2+1)/4 = 1.75; the
	// specialist must add value above that.
	if got <= 1.75 {
		t.Errorf("optimal assignment must exploit the specialist: %f", got)
	}
}

func TestScoreSTPicksBestCore(t *testing.T) {
	regions := workload.Regions()
	n := len(regions)
	si := newSuiteIndex(regions)
	slow := fakeCandidate(n, 1.0, 1.0, 10, 12)
	fast := fakeCandidate(n, 3.0, 0.2, 10, 12)
	cores := [4]*Candidate{slow, slow, slow, fast}
	if got := si.scoreST(&cores, false); got < 2.999 || got > 3.001 {
		t.Errorf("ST must migrate every phase to the fast core: %f", got)
	}
	if got := si.scoreST(&cores, true); got < -0.201 || got > -0.199 {
		t.Errorf("ST EDP must pick the efficient core: %f", got)
	}
}

func TestFeasibleBudgets(t *testing.T) {
	regions := workload.Regions()
	n := len(regions)
	c := fakeCandidate(n, 1, 1, 6, 12)
	cores := [4]*Candidate{c, c, c, c}
	if !feasible(&cores, Budget{}, false) {
		t.Error("unlimited budget must accept everything")
	}
	if feasible(&cores, Budget{PeakW: 20}, false) {
		t.Error("4x6W exceeds a 20W MP budget")
	}
	if !feasible(&cores, Budget{PeakW: 20}, true) {
		t.Error("6W per core fits a 20W ST budget (one core on)")
	}
	if feasible(&cores, Budget{AreaMM2: 40}, false) {
		t.Error("48mm2 exceeds a 40mm2 budget")
	}
	if !feasible(&cores, Budget{AreaMM2: 48}, false) {
		t.Error("48mm2 fits exactly")
	}
}

func TestBudgetString(t *testing.T) {
	if (Budget{PeakW: 40}).String() != "40W" {
		t.Error("power budget format")
	}
	if (Budget{AreaMM2: 48}).String() != "48mm2" {
		t.Error("area budget format")
	}
	if (Budget{}).String() != "unlimited" {
		t.Error("unlimited budget format")
	}
}

func TestObjectiveKinds(t *testing.T) {
	if ObjMPThroughput.SingleThread() || ObjMPEDP.SingleThread() {
		t.Error("MP objectives are not single-thread")
	}
	if !ObjSTPerf.SingleThread() || !ObjSTEDP.SingleThread() {
		t.Error("ST objectives power one core at a time")
	}
}

func TestScheduleMPCountsMigrations(t *testing.T) {
	regions := workload.Regions()
	n := len(regions)
	si := newSuiteIndex(regions)
	// Alternating specialists force reassignments between steps.
	a := fakeCandidate(n, 1, 1, 10, 12)
	b := fakeCandidate(n, 1, 1, 10, 12)
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			a.Speedup[i] = 5
		} else {
			b.Speedup[i] = 5
		}
	}
	g := fakeCandidate(n, 1, 1, 10, 12)
	cores := [4]*Candidate{a, b, g, g}
	st := si.scheduleMP(&cores, regions, nil)
	if st.Migrations == 0 {
		t.Error("alternating specialists must trigger migrations")
	}
	if st.Steps == 0 || st.Throughput <= 0 {
		t.Error("schedule must produce steps and positive throughput")
	}
}

// scoreMPReference is the multi-programmed scorer as first written: it
// re-derives every mix's phase steps and walks the 24 permutations with a
// subtracting EDP sum. scoreMP must reproduce it bit for bit.
func scoreMPReference(si *suiteIndex, cores *[4]*Candidate, edp bool) float64 {
	total := 0.0
	steps := 0
	for _, mix := range si.mixes {
		maxLen := 0
		for _, b := range mix {
			if l := len(si.benchRegions[b]); l > maxLen {
				maxLen = l
			}
		}
		for t := 0; t < maxLen; t++ {
			var phase [4]int
			for i, b := range mix {
				rs := si.benchRegions[b]
				phase[i] = rs[t%len(rs)]
			}
			best := math.Inf(-1)
			for _, perm := range si.perms {
				v := 0.0
				for th := 0; th < 4; th++ {
					core := cores[perm[th]]
					if edp {
						v -= core.NormEDP[phase[th]]
					} else {
						v += core.Speedup[phase[th]]
					}
				}
				if v > best {
					best = v
				}
			}
			total += best / 4
			steps++
		}
	}
	return total / float64(steps)
}

// randomCandidate draws per-region speedups and normalized EDPs. About one
// region in ten carries the quarantine penalties (0.25, 4.0); quantized
// candidates draw from a few powers of two, so many permutations tie.
func randomCandidate(rng *rand.Rand, n int, quantized bool) *Candidate {
	c := fakeCandidate(n, 1, 1, 4+8*rng.Float64(), 8+16*rng.Float64())
	levels := []float64{0.25, 0.5, 1, 2, 4}
	for r := 0; r < n; r++ {
		switch {
		case rng.Intn(10) == 0:
			c.Speedup[r], c.NormEDP[r] = 0.25, 4.0
		case quantized:
			c.Speedup[r] = levels[rng.Intn(len(levels))]
			c.NormEDP[r] = levels[rng.Intn(len(levels))]
		default:
			c.Speedup[r] = 0.1 + 4*rng.Float64()
			c.NormEDP[r] = 0.05 + 6*rng.Float64()
		}
	}
	return c
}

// TestScoreMPMatchesReference: the flat step table and the permutation
// tree change how scoreMP enumerates, not a single output bit — for
// distinct, duplicate, all-equal and equal-valued cores, both objectives,
// the full suite and a shrunk one (mixes with repetition).
func TestScoreMPMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, regions := range [][]workload.Region{workload.Regions(), workload.Regions()[:10]} {
		si := newSuiteIndex(regions)
		n := len(regions)
		for trial := 0; trial < 12; trial++ {
			q := trial%3 == 0
			a, b, c, d := randomCandidate(rng, n, q), randomCandidate(rng, n, q),
				randomCandidate(rng, n, q), randomCandidate(rng, n, q)
			twin := *a // distinct pointer, identical values
			sets := [][4]*Candidate{
				{a, b, c, d}, {a, a, b, c}, {a, b, a, b}, {a, a, a, a}, {a, &twin, a, &twin},
			}
			for _, cores := range sets {
				for _, edp := range []bool{false, true} {
					got, want := si.scoreMP(&cores, edp), scoreMPReference(si, &cores, edp)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("regions=%d trial %d edp=%v: scoreMP %v (%#x), reference %v (%#x)",
							n, trial, edp, got, math.Float64bits(got), want, math.Float64bits(want))
					}
				}
			}
		}
	}
}

// TestScreenSoundness: the screen is within rounding of the exact score —
// at least 1000x below screenTol — and never discards a trial the exact
// acceptance test would take, even one that clears it by the least
// representable margin.
func TestScreenSoundness(t *testing.T) {
	regions := workload.Regions()
	si := newSuiteIndex(regions)
	n := len(regions)
	rng := rand.New(rand.NewSource(11))
	var pool []*Candidate
	for i := 0; i < 24; i++ {
		pool = append(pool, randomCandidate(rng, n, i%4 == 0))
	}
	rest := make([][4]float64, len(si.steps))
	maxErr := 0.0
	for _, edp := range []bool{false, true} {
		if !si.screenSound(pool, edp) {
			t.Fatalf("edp=%v: screen must be sound for bounded finite values", edp)
		}
		for trial := 0; trial < 8; trial++ {
			cur := [4]*Candidate{pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool))],
				pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool))]}
			for slot := 0; slot < 4; slot++ {
				si.restTable(&cur, slot, edp, rest)
				for _, c := range pool {
					cores := cur
					cores[slot] = c
					exact := si.scoreMP(&cores, edp)
					screen := si.screenMP(c, edp, rest)
					maxErr = math.Max(maxErr, math.Abs(screen-exact))
					// The lowest incumbent score exact still beats.
					best := exact - 1e-12
					for !(exact > best+1e-12) {
						best = math.Nextafter(best, math.Inf(-1))
					}
					if !(screen > best+1e-12-screenTol) {
						t.Fatalf("screen %v discards a trial scoring %v over incumbent %v", screen, exact, best)
					}
				}
			}
		}
	}
	if maxErr*1000 > screenTol {
		t.Errorf("max |screen - exact| = %g, want <= screenTol/1000 = %g", maxErr, screenTol/1000)
	}
	t.Logf("max |screen - exact| = %g over %d steps", maxErr, len(si.steps))

	// Non-finite or huge values disable screening.
	bad := randomCandidate(rng, n, false)
	for _, v := range []float64{math.NaN(), math.Inf(1), 1e300} {
		bad.Speedup[3], bad.NormEDP[3] = v, v
		for _, edp := range []bool{false, true} {
			if si.screenSound([]*Candidate{pool[0], bad}, edp) {
				t.Errorf("value %v (edp=%v) must disable screening", v, edp)
			}
		}
	}
}

// TestSearchScreenedMatchesExact runs small synthetic searches for every
// objective, two at a time, so concurrent climbs share the step table
// while each uses its own rest-table scratch (make race covers it). A
// candidate with NaN values that the constraint rejects changes nothing
// about the search except that it turns screening off; the screened and
// exact searches must return identical CMPs and score bits.
func TestSearchScreenedMatchesExact(t *testing.T) {
	regions := workload.Regions()
	n := len(regions)
	rng := rand.New(rand.NewSource(5))
	choices := CompositeChoices()
	var cands []*Candidate
	for i := 0; i < 36; i++ {
		c := randomCandidate(rng, n, i%6 == 0)
		c.DP.ISA = choices[i%len(choices)]
		cands = append(cands, c)
	}
	poison := randomCandidate(rng, n, false)
	poison.Speedup[0], poison.NormEDP[0] = math.NaN(), math.NaN()
	notPoison := func(c *Candidate) bool { return c != poison }

	for _, obj := range []Objective{ObjMPThroughput, ObjMPEDP, ObjSTPerf, ObjSTEDP} {
		spec := SearchSpec{Candidates: cands, Budget: Budget{PeakW: 30}, Objective: obj, Constraint: notPoison}
		exactSpec := spec
		exactSpec.Candidates = append(append([]*Candidate{}, cands...), poison)
		if si := newSuiteIndex(regions); !obj.SingleThread() &&
			(!si.screenSound(spec.Candidates, obj == ObjMPEDP) || si.screenSound(exactSpec.Candidates, obj == ObjMPEDP)) {
			t.Fatal("the poison candidate must be what turns screening off")
		}
		var got [2]CMP
		var errs [2]error
		var wg sync.WaitGroup
		for i, sp := range []SearchSpec{spec, exactSpec} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i], errs[i] = Search(context.Background(), sp, regions)
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatalf("%v: %v", obj, err)
			}
		}
		if got[0].Cores != got[1].Cores || math.Float64bits(got[0].Score) != math.Float64bits(got[1].Score) {
			t.Errorf("objective %v: screened search %v (%v) differs from exact search %v (%v)",
				obj, got[0].Cores, got[0].Score, got[1].Cores, got[1].Score)
		}
		if got[0].TotalPeak() > 30 && !obj.SingleThread() {
			t.Errorf("objective %v: 30W budget violated: %.1fW", obj, got[0].TotalPeak())
		}
	}
}
