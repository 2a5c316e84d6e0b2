package explore

import (
	"context"
	"math"
	"math/rand"
	"sort"
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
		Speedup: make([]float64, n), NormEDP: make([]float64, n)}
	for i := 0; i < n; i++ {
		c.Speedup[i] = speedup
		c.NormEDP[i] = edp
	}
	return c
}

// fakeCycles gives each fake core the cycles its speedups imply against a
// reference of 1000 cycles per region.
func fakeCycles(cores *[4]*Candidate) *[4][]float64 {
	var cyc [4][]float64
	for k, c := range cores {
		cyc[k] = make([]float64, len(c.Speedup))
		for r, sp := range c.Speedup {
			cyc[k][r] = 1000 / sp
		}
	}
	return &cyc
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
	if got := (Budget{PeakW: 20, AreaMM2: 48}).String(); got != "20W+48mm2" {
		t.Errorf("two-cap budget format %q", got)
	}
}

// TestSearchKeyStrings pins the frontier keys saved runs already store:
// single-cap and unlimited budgets must keep resolving to the same entries.
// Only a budget with both caps gets a key of its own.
func TestSearchKeyStrings(t *testing.T) {
	for _, tc := range []struct {
		org        Organization
		obj        Objective
		b          Budget
		constraint string
		want       string
	}{
		{OrgHomogeneous, ObjMPThroughput, Budget{PeakW: 20}, "", "0|0|20W"},
		{OrgCompositeFull, ObjSTPerf, Budget{PeakW: 7.5}, "", "4|2|7.5W"},
		{OrgHeteroVendor, ObjMPEDP, Budget{AreaMM2: 48}, "", "3|1|48mm2"},
		{OrgCompositeFixed, ObjSTEDP, Budget{}, "", "2|3|unlimited"},
		{OrgCompositeFull, ObjMPThroughput, Budget{AreaMM2: 64}, "no-vector", "4|0|64mm2|no-vector"},
		{OrgCompositeFull, ObjMPThroughput, Budget{PeakW: 20, AreaMM2: 48}, "", "4|0|20W+48mm2"},
	} {
		if got := searchKey(tc.org, tc.obj, tc.b, tc.constraint); got != tc.want {
			t.Errorf("searchKey(%d, %d, %+v, %q) = %q, want %q", tc.org, tc.obj, tc.b, tc.constraint, got, tc.want)
		}
	}
}

// TestSearchTwoCapBudgetOwnFrontierEntry: on one Searcher, a search under
// a power cap must not answer a later search under the same power cap plus
// an area cap, whose result has to respect the area cap.
func TestSearchTwoCapBudgetOwnFrontierEntry(t *testing.T) {
	ctx := context.Background()
	s, err := NewSearcher(ctx, smallDB(3, nil))
	if err != nil {
		t.Fatal(err)
	}
	org, power := OrgSingleISAHetero, Budget{PeakW: 60}
	one, err := s.Search(ctx, org, ObjMPThroughput, power)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := s.Candidates(ctx, org)
	if err != nil {
		t.Fatal(err)
	}
	// The cheapest four-core design that fits the power cap bounds the
	// smallest feasible area from above.
	floor := math.Inf(1)
	for _, c := range cs {
		if 4*c.PeakW <= power.PeakW {
			floor = math.Min(floor, 4*c.AreaMM2)
		}
	}
	if !(floor < one.TotalArea()) {
		t.Fatalf("the power-capped optimum (%.1fmm2) must be larger than the smallest feasible design (%.1fmm2)",
			one.TotalArea(), floor)
	}
	both := Budget{PeakW: power.PeakW, AreaMM2: (floor + one.TotalArea()) / 2}
	two, err := s.Search(ctx, org, ObjMPThroughput, both)
	if err != nil {
		t.Fatal(err)
	}
	if two.TotalArea() > both.AreaMM2 || two.TotalPeak() > both.PeakW {
		t.Errorf("search under %s returned %.1fW, %.1fmm2", both, two.TotalPeak(), two.TotalArea())
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
	st := si.scheduleMP(&cores, fakeCycles(&cores), regions, nil)
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
// at least 1000x below screenTol — and the O(1) bound is at least the
// screen, within the derived rounding term. Neither ever discards a trial
// the exact acceptance test would take, even one that clears it by the
// least representable margin.
func TestScreenSoundness(t *testing.T) {
	regions := workload.Regions()
	si := newSuiteIndex(regions)
	n := len(regions)
	steps := float64(len(si.steps))
	const u = 0x1p-53
	rng := rand.New(rand.NewSource(11))
	var pool []*Candidate
	for i := 0; i < 24; i++ {
		pool = append(pool, randomCandidate(rng, n, i%4 == 0))
	}
	rest := make([][4]float64, len(si.steps))
	maxErr, maxOver := 0.0, 0.0
	for _, edp := range []bool{false, true} {
		if !si.screenSound(pool, edp) {
			t.Fatalf("edp=%v: screen must be sound for bounded finite values", edp)
		}
		vmax := 0.0
		for _, c := range pool {
			vals, _ := mpValues(c, edp)
			for _, v := range vals {
				vmax = math.Max(vmax, math.Abs(v))
			}
		}
		// Screen and bound are each within (n+4)·u·V of their real values,
		// and the real bound is at least the real screen.
		slack := 2 * (steps + 4) * u * vmax
		for trial := 0; trial < 8; trial++ {
			cur := [4]*Candidate{pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool))],
				pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool))]}
			for slot := 0; slot < 4; slot++ {
				restMax := si.restTable(&cur, slot, edp, rest)
				for _, c := range pool {
					cores := cur
					cores[slot] = c
					exact := si.scoreMP(&cores, edp)
					screen := si.screenMP(c, edp, rest)
					bound := si.mpBound(restMax, si.stepMax(c, edp))
					maxErr = math.Max(maxErr, math.Abs(screen-exact))
					maxOver = math.Max(maxOver, screen-bound)
					if bound < screen-slack {
						t.Fatalf("edp=%v: bound %v below screen %v by more than %g", edp, bound, screen, slack)
					}
					// The lowest incumbent score exact still beats.
					best := exact - 1e-12
					for !(exact > best+1e-12) {
						best = math.Nextafter(best, math.Inf(-1))
					}
					if !(screen > best+1e-12-screenTol) {
						t.Fatalf("screen %v discards a trial scoring %v over incumbent %v", screen, exact, best)
					}
					if !(bound > best+1e-12-screenTol) {
						t.Fatalf("bound %v discards a trial scoring %v over incumbent %v", bound, exact, best)
					}
				}
			}
		}
	}
	if maxErr*1000 > screenTol {
		t.Errorf("max |screen - exact| = %g, want <= screenTol/1000 = %g", maxErr, screenTol/1000)
	}
	t.Logf("max |screen - exact| = %g, max screen - bound = %g over %d steps", maxErr, maxOver, len(si.steps))

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
	// screenSound admits exactly the values for which screen and bound each
	// stay within half of screenTol of the exact score, 4·(n+4)·u·V ≤
	// screenTol, so it rejects every range where the bound's own rounding,
	// (n+3)·u·V, reaches screenTol.
	vcrit := screenTol / (4 * (steps + 4) * u)
	for _, tc := range []struct {
		v    float64
		want bool
	}{
		{0.99 * vcrit, true},
		{1.01 * vcrit, false},
		{screenTol / ((steps + 3) * u), false},
	} {
		bad.Speedup[3], bad.NormEDP[3] = tc.v, tc.v
		for _, edp := range []bool{false, true} {
			if got := si.screenSound([]*Candidate{pool[0], bad}, edp); got != tc.want {
				t.Errorf("value %g (edp=%v): screenSound = %v, want %v", tc.v, edp, got, tc.want)
			}
		}
	}
}

// scoreSTReference is the single-thread scorer as first written: per
// region, the best of the four cores walked in core order.
func scoreSTReference(si *suiteIndex, cores *[4]*Candidate, edp bool) float64 {
	total := 0.0
	for b := range si.benchRegions {
		bs := 0.0
		for k, r := range si.benchRegions[b] {
			best := math.Inf(-1)
			for _, core := range cores {
				v := core.Speedup[r]
				if edp {
					v = -core.NormEDP[r]
				}
				if v > best {
					best = v
				}
			}
			bs += si.weights[b][k] * best
		}
		total += bs
	}
	return total / float64(len(si.benchRegions))
}

// TestScoreSTSlotMatchesScoreST: scoring a trial against the rest-best of
// the other three cores gives scoreST of the full trial bit for bit, and
// scoreST gives the original four-core walk, for every slot and both ST
// objectives — also where values are NaN, ±Inf, or ±0 ties.
func TestScoreSTSlotMatchesScoreST(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1)}
	for _, regions := range [][]workload.Region{workload.Regions(), workload.Regions()[:10]} {
		si := newSuiteIndex(regions)
		n := len(regions)
		draw := func() *Candidate {
			c := randomCandidate(rng, n, rng.Intn(2) == 0)
			for r := 0; r < n; r++ {
				if rng.Intn(4) == 0 {
					c.Speedup[r] = special[rng.Intn(len(special))]
				}
				if rng.Intn(4) == 0 {
					c.NormEDP[r] = special[rng.Intn(len(special))]
				}
			}
			return c
		}
		var pool []*Candidate
		for i := 0; i < 16; i++ {
			pool = append(pool, draw())
		}
		restBest := make([]float64, si.nRegions)
		for trial := 0; trial < 24; trial++ {
			cur := [4]*Candidate{pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool))],
				pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool))]}
			for _, edp := range []bool{false, true} {
				for slot := 0; slot < 4; slot++ {
					si.stRestBest(&cur, slot, edp, restBest)
					for _, c := range pool {
						cores := cur
						cores[slot] = c
						got, want := si.scoreSTSlot(c, edp, restBest), si.scoreST(&cores, edp)
						if ref := scoreSTReference(si, &cores, edp); math.Float64bits(want) != math.Float64bits(ref) {
							t.Fatalf("regions=%d edp=%v: scoreST %v (%#x), reference %v (%#x)",
								n, edp, want, math.Float64bits(want), ref, math.Float64bits(ref))
						}
						if math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("regions=%d edp=%v slot %d: slot score %v (%#x), scoreST %v (%#x)",
								n, edp, slot, got, math.Float64bits(got), want, math.Float64bits(want))
						}
					}
				}
			}
		}
	}
}

// TestSortFuncMatchesSortSlice: the typed sorts in prune put candidates in
// exactly the pointer order sort.Slice did, on tie-heavy keys (five
// distinct values, NaN and both zeros among them).
func TestSortFuncMatchesSortSlice(t *testing.T) {
	levels := []float64{1, 0.5, 0, math.Copysign(0, -1), math.NaN()}
	lengths := []int{0, 1, 2, 3, 11, 12, 13, 49, 50, 200, 777, 2000}
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for _, n := range lengths {
			ks := make([]keyed, n)
			key := make(map[*Candidate]float64, n)
			cs := make([]*Candidate, n)
			for i := range ks {
				c := &Candidate{}
				ks[i] = keyed{c, levels[rng.Intn(len(levels))]}
				key[c], cs[i] = ks[i].k, c
			}
			want := append([]keyed{}, ks...)
			sort.Slice(want, func(i, j int) bool { return want[i].k > want[j].k })

			got := append([]keyed{}, ks...)
			sortKeyedDesc(got)
			sortByKeyDesc(cs, func(c *Candidate) float64 { return key[c] })
			for i := range want {
				if got[i].c != want[i].c || cs[i] != want[i].c {
					t.Fatalf("seed %d, n=%d: order differs from sort.Slice at %d", seed, n, i)
				}
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
