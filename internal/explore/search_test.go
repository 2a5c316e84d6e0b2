package explore

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"

	"compisa/internal/golden"
	"compisa/internal/workload"
)

// searchFixtureBase is how many seeded random candidates open the search
// fixture's candidate list; the dominance extras follow them.
const searchFixtureBase = 36

// searchFixtureCands draws the 36 seeded random candidates of
// TestSearchScreenedMatchesExact and appends the dominance extras built
// from some of them (see dominanceExtras).
func searchFixtureCands(n int) []*Candidate {
	rng := rand.New(rand.NewSource(5))
	choices := CompositeChoices()
	var cands []*Candidate
	for i := 0; i < searchFixtureBase; i++ {
		c := randomCandidate(rng, n, i%6 == 0)
		c.DP.ISA = choices[i%len(choices)]
		cands = append(cands, c)
	}
	return append(cands, dominanceExtras(cands)...)
}

// scaledCandidate copies c with every speedup multiplied by perf, every
// normalized EDP divided by it, and peak power and area multiplied by cost.
func scaledCandidate(c *Candidate, perf, cost float64) *Candidate {
	s := *c
	s.Speedup, s.NormEDP = slices.Clone(c.Speedup), slices.Clone(c.NormEDP)
	for r := range s.Speedup {
		s.Speedup[r] *= perf
		s.NormEDP[r] /= perf
	}
	s.PeakW *= cost
	s.AreaMM2 *= cost
	return &s
}

// dominanceExtras derives candidates that dominate or are dominated by
// base ones: scaled copies that are better and costlier or worse and
// cheaper, an equal-valued twin, a pair equal but for the sign of their
// zeros, and, last, one candidate with a NaN speedup.
func dominanceExtras(base []*Candidate) []*Candidate {
	var out []*Candidate
	for _, i := range []int{2, 7, 18, 24} {
		out = append(out, scaledCandidate(base[i], 1.25, 1.3), scaledCandidate(base[i], 0.8, 0.7))
	}
	out = append(out, scaledCandidate(base[18], 1, 1))
	pos, neg := scaledCandidate(base[12], 1, 0.9), scaledCandidate(base[12], 1, 0.9)
	for r := 0; r < len(pos.Speedup); r += 5 {
		pos.Speedup[r], pos.NormEDP[r] = 0, 0
		neg.Speedup[r], neg.NormEDP[r] = math.Copysign(0, -1), math.Copysign(0, -1)
	}
	nan := scaledCandidate(base[22], 1.1, 1)
	nan.Speedup[3] = math.NaN()
	return append(out, pos, neg, nan)
}

// searchFixtureCase is one cell of testdata/search.golden.
type searchFixtureCase struct {
	key  string
	spec SearchSpec
}

// searchFixtureCases covers every objective under a power cap, an area cap
// and no cap, heterogeneous, plus one homogeneous search, over the random
// candidates alone. Then, over the random candidates and the finite
// dominance extras, every objective under a budget tight enough that the
// better, costlier copies are out of reach, and under none; and every
// objective with the non-finite extra too, under no budget. Each group
// searches a prefix of cands, so both multi-programmed objectives stay
// screened until the non-finite candidate joins.
func searchFixtureCases(cands []*Candidate) []searchFixtureCase {
	objs := []struct {
		name string
		obj  Objective
	}{{"mp-throughput", ObjMPThroughput}, {"mp-edp", ObjMPEDP}, {"st-perf", ObjSTPerf}, {"st-edp", ObjSTEDP}}
	base, finite := cands[:searchFixtureBase], cands[:len(cands)-1]
	var out []searchFixtureCase
	for _, o := range objs {
		for _, b := range []Budget{{PeakW: 30}, {AreaMM2: 48}, {}} {
			out = append(out, searchFixtureCase{o.name + " " + b.String(),
				SearchSpec{Candidates: base, Budget: b, Objective: o.obj}})
		}
	}
	hom := SearchSpec{Candidates: base, Budget: Budget{PeakW: 30}, Objective: ObjMPThroughput, Homogeneous: true}
	out = append(out, searchFixtureCase{"mp-throughput 30W homogeneous", hom})
	for _, o := range objs {
		for _, b := range []Budget{{PeakW: 24, AreaMM2: 44}, {}} {
			out = append(out, searchFixtureCase{"dominance " + o.name + " " + b.String(),
				SearchSpec{Candidates: finite, Budget: b, Objective: o.obj}})
		}
	}
	for _, o := range objs {
		out = append(out, searchFixtureCase{"non-finite " + o.name + " unlimited",
			SearchSpec{Candidates: cands, Objective: o.obj}})
	}
	return out
}

// searchDigest is a fixture line's value: the index of each core in the
// candidate list and the score's bits.
func searchDigest(cands []*Candidate, cmp CMP) string {
	var idx [4]int
	for k, c := range cmp.Cores {
		idx[k] = -1
		for i, x := range cands {
			if x == c {
				idx[k] = i
			}
		}
	}
	return fmt.Sprintf("cores=%v score=%016x", idx, math.Float64bits(cmp.Score))
}

// TestSearchDigest pins the CMP and the score bits of every objective's
// search over seeded random candidates in testdata/search.golden; a
// mismatch names each moved cell.
func TestSearchDigest(t *testing.T) {
	regions := workload.Regions()
	cands := searchFixtureCands(len(regions))
	var lines []string
	for _, tc := range searchFixtureCases(cands) {
		cmp, err := Search(context.Background(), tc.spec, regions)
		if err != nil {
			t.Fatalf("%s: %v", tc.key, err)
		}
		lines = append(lines, tc.key+"\t"+searchDigest(cands, cmp))
	}
	golden.Check(t, "search.golden", lines, false)
}

// cancelAfter is a context that cancels itself on the n-th call of Err,
// so a test can cut a search short at a fixed point inside its climbs.
type cancelAfter struct {
	context.Context
	cancel context.CancelFunc
	calls  atomic.Int64
	n      int64
}

func newCancelAfter(t *testing.T, n int64) *cancelAfter {
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	return &cancelAfter{Context: ctx, cancel: cancel, n: n}
}

func (c *cancelAfter) Err() error {
	if c.calls.Add(1) >= c.n {
		c.cancel()
	}
	return c.Context.Err()
}

// TestSearchPassMemo: a real-suite composite-full MP search takes passes
// from the memo, and its result and pass counts are the same on one
// processor and on four, whichever climb leads each pass.
func TestSearchPassMemo(t *testing.T) {
	if testing.Short() {
		t.Skip("search suite in long mode only")
	}
	if raceEnabled {
		t.Skip("full-suite search too slow under the race detector; TestSearchCancelledPassNotReused covers the memo")
	}
	_, s := searcher(t)
	cs, err := s.Candidates(context.Background(), OrgCompositeFull)
	if err != nil {
		t.Fatal(err)
	}
	spec := SearchSpec{Candidates: cs, Budget: Budget{AreaMM2: 48}, Objective: ObjMPThroughput}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var got [2]CMP
	var run, reused [2]int64
	for i, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		got[i], run[i], reused[i], err = search(context.Background(), spec, s.DB.Regions)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("GOMAXPROCS=%d: %d passes scanned, %d reused", procs, run[i], reused[i])
	}
	if reused[0] == 0 {
		t.Error("no pass was reused: the memo is vacuous")
	}
	if got[0].Cores != got[1].Cores || math.Float64bits(got[0].Score) != math.Float64bits(got[1].Score) {
		t.Errorf("GOMAXPROCS=1 found %v (%v), GOMAXPROCS=4 found %v (%v)", got[0].Cores, got[0].Score, got[1].Cores, got[1].Score)
	}
	// Every distinct pass is scanned exactly once, so the counts do not
	// depend on which climb reaches a pass first.
	if run[0] != run[1] || reused[0] != reused[1] {
		t.Errorf("pass counts differ: %d+%d on one processor, %d+%d on four", run[0], reused[0], run[1], reused[1])
	}
}

// storedFront returns the front memo's entry for spec's survivors, or nil.
func storedFront(fm *frontMemo, spec SearchSpec) *front {
	ok := survivors(spec)
	edp := spec.Objective == ObjMPEDP || spec.Objective == ObjSTEDP
	fm.mu.Lock()
	defer fm.mu.Unlock()
	return fm.lookup(frontKey{edp: edp, maxCands: spec.MaxCandidates, n: len(ok), first: ok[0]}, ok)
}

// checkFrontMemo fails unless every front and value the memo holds equals,
// bit for bit, a fresh computation: nothing a later search can read is
// partial. Every search through fm must be one of searchFixtureCases(cands).
func checkFrontMemo(t *testing.T, fm *frontMemo, si *suiteIndex, cands []*Candidate) {
	t.Helper()
	fm.mu.Lock()
	defer fm.mu.Unlock()
	sameBits := func(a, b []float64) bool {
		return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
	}
	for k, fs := range fm.fronts {
		for _, f := range fs {
			fresh, err := prune(context.Background(), f.survivors, f.edp, k.maxCands)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(f.cands, fresh.cands) || !slices.Equal(f.isaKeys, fresh.isaKeys) {
				t.Errorf("stored front (edp=%v, %d survivors) differs from a fresh prune", f.edp, len(f.survivors))
			}
			for obj, h := range f.hom {
				if h == nil {
					continue
				}
				want, _ := fresh.homScores(context.Background(), si, Objective(obj))
				if !sameBits(h, want) {
					t.Errorf("stored homogeneous scores for objective %d differ from fresh ones", obj)
				}
			}
			if sm, err := si.stepMaxes(context.Background(), f.cands, f.edp); f.stepMax != nil && (err != nil || !sameBits(f.stepMax, sm)) {
				t.Error("stored stepMax differs from a fresh one")
			}
			if dom, err := dominators(context.Background(), f.cands, f.edp); f.dom != nil && (err != nil || !slices.Equal(f.dom, dom)) {
				t.Error("stored dominators differ from fresh ones")
			}
		}
	}
	// A probe that fails stores nothing; a stored verdict answers it. Every
	// kept verdict must answer a probe of a candidate slice the fixture
	// searches: one kept under any other key was stored for a slice no
	// search used.
	errProbe := errors.New("probe")
	found := 0
	probed := map[soundKey]bool{}
	for _, tc := range searchFixtureCases(cands) {
		cs := tc.spec.Candidates
		for _, edp := range []bool{false, true} {
			k := soundKey{cs: &cs[0], n: len(cs), edp: edp}
			if probed[k] {
				continue
			}
			probed[k] = true
			v, stored, _ := fm.sound.Do(context.Background(), k, func() (bool, error) { return false, errProbe })
			if !stored {
				continue
			}
			found++
			if v != si.screenSound(cs, edp) {
				t.Errorf("stored screenSound verdict %v (edp=%v, %d candidates) is stale", v, edp, len(cs))
			}
		}
	}
	if n := fm.sound.Len(); n != found {
		t.Errorf("screenSound verdicts stored for a candidate slice no search used: %d kept, %d under the searched slices", n, found)
	}
}

// TestSearchFrontMemo runs every fixture search through one shared front
// memo, in fixture order and reversed: the results equal the fixture, the
// memo serves some searches, and every search either found its front or
// stored it.
func TestSearchFrontMemo(t *testing.T) {
	regions := workload.Regions()
	si := newSuiteIndex(regions)
	cands := searchFixtureCands(len(regions))
	cases := searchFixtureCases(cands)
	for _, reversed := range []bool{false, true} {
		fm := newFrontMemo()
		lines := make([]string, len(cases))
		for j := range cases {
			i := j
			if reversed {
				i = len(cases) - 1 - j
			}
			cmp, _, _, err := searchWith(context.Background(), cases[i].spec, si, fm)
			if err != nil {
				t.Fatalf("%s: %v", cases[i].key, err)
			}
			lines[i] = cases[i].key + "\t" + searchDigest(cands, cmp)
			// The memo filed the front under this search's own ranking.
			spec := cases[i].spec
			edp := spec.Objective == ObjMPEDP || spec.Objective == ObjSTEDP
			fresh, err := prune(context.Background(), survivors(spec), edp, spec.MaxCandidates)
			if err != nil {
				t.Fatal(err)
			}
			if f := storedFront(fm, spec); f == nil || f.edp != edp || !slices.Equal(f.cands, fresh.cands) {
				t.Errorf("%s: the memo holds no front equal to a fresh prune", cases[i].key)
			}
		}
		golden.Check(t, "search.golden", lines, false)
		stored := 0
		for _, fs := range fm.fronts {
			stored += len(fs)
		}
		t.Logf("reversed=%v: %d searches, %d fronts built, %d reused", reversed, len(cases), stored, fm.hits.Load())
		if fm.hits.Load() == 0 {
			t.Error("no search reused a front: the memo is vacuous")
		}
		if got := int(fm.hits.Load()) + stored; got != len(cases) {
			t.Errorf("%d fronts reused + %d built, want %d searches", fm.hits.Load(), stored, len(cases))
		}
		checkFrontMemo(t, fm, si, cands)
	}
}

// TestSearchCancelledPassNotReused cancels every heterogeneous fixture
// search halfway through its context checks, past its seeding and so inside
// its climbs: the search returns context.Canceled, and a fresh search of the
// same spec still returns the fixture's result. Through one front memo
// shared by all cases, it also cancels each search inside its prune (the
// first check per region) and at its first homogeneous score: a front or
// score cut short is never stored, and the memo's fresh-built values all
// stay exact.
func TestSearchCancelledPassNotReused(t *testing.T) {
	regions := workload.Regions()
	si := newSuiteIndex(regions)
	cands := searchFixtureCands(len(regions))
	fm := newFrontMemo()
	var lines []string
	for _, tc := range searchFixtureCases(cands) {
		if !tc.spec.Homogeneous {
			// A homogeneous search is the seeding and one more seed scan.
			homSpec := tc.spec
			homSpec.Homogeneous = true
			seeding := newCancelAfter(t, math.MaxInt64)
			if _, err := Search(seeding, homSpec, regions); err != nil {
				t.Fatalf("%s: %v", tc.key, err)
			}
			count := newCancelAfter(t, math.MaxInt64)
			if _, err := Search(count, tc.spec, regions); err != nil {
				t.Fatalf("%s: %v", tc.key, err)
			}
			half := newCancelAfter(t, count.calls.Load()/2)
			if half.n <= seeding.calls.Load() {
				t.Fatalf("%s: cancelling at check %d of %d would not reach the climbs (seeding makes %d)",
					tc.key, half.n, count.calls.Load(), seeding.calls.Load())
			}
			if _, err := Search(half, tc.spec, regions); !errors.Is(err, context.Canceled) {
				t.Fatalf("%s: cancelled search returned %v, want context.Canceled", tc.key, err)
			}

			cancelShared := func(n int64) {
				t.Helper()
				if _, _, _, err := searchWith(newCancelAfter(t, n), tc.spec, si, fm); !errors.Is(err, context.Canceled) {
					t.Fatalf("%s: search through the shared memo cancelled at check %d returned %v, want context.Canceled", tc.key, n, err)
				}
				checkFrontMemo(t, fm, si, cands)
			}
			// A new front's prune makes the first len(regions) checks.
			if storedFront(fm, tc.spec) == nil {
				for _, n := range []int64{1, int64(len(regions))} {
					cancelShared(n)
					if storedFront(fm, tc.spec) != nil {
						t.Fatalf("%s: a prune cancelled at check %d stored its front", tc.key, n)
					}
				}
				cancelShared(int64(len(regions)) + 1)
				if storedFront(fm, tc.spec) == nil {
					t.Fatalf("%s: a completed prune stored no front", tc.key)
				}
			}
			// The front is stored; its homogeneous scores may not be.
			if f := storedFront(fm, tc.spec); f.loaded(&f.hom[tc.spec.Objective]) == nil {
				cancelShared(1)
				if f.loaded(&f.hom[tc.spec.Objective]) != nil {
					t.Fatalf("%s: homogeneous scores cancelled at their first candidate were stored", tc.key)
				}
			}
			cancelShared(half.n)
		}
		cmp, _, _, err := searchWith(context.Background(), tc.spec, si, fm)
		if err != nil {
			t.Fatalf("%s: %v", tc.key, err)
		}
		if fresh, err := Search(context.Background(), tc.spec, regions); err != nil {
			t.Fatalf("%s: %v", tc.key, err)
		} else if fresh.Cores != cmp.Cores || math.Float64bits(fresh.Score) != math.Float64bits(cmp.Score) {
			t.Errorf("%s: shared-memo search found %v (%v), a fresh search %v (%v)", tc.key, cmp.Cores, cmp.Score, fresh.Cores, fresh.Score)
		}
		lines = append(lines, tc.key+"\t"+searchDigest(cands, cmp))
	}
	if fm.hits.Load() == 0 {
		t.Error("no search reused a front: the shared memo is vacuous")
	}
	golden.Check(t, "search.golden", lines, false)
}

// TestSearchFrontShared: on the real suite, composite-full MP-throughput
// and ST-perf at 48 mm² keep the same survivors under the same non-EDP
// ranking, so one Searcher builds their front once; each result equals a
// fresh Searcher's, in cores and score bits.
func TestSearchFrontShared(t *testing.T) {
	if testing.Short() {
		t.Skip("search suite in long mode only")
	}
	if raceEnabled {
		t.Skip("full-suite search too slow under the race detector; TestSearchCancelledPassNotReused covers the memo")
	}
	ctx := context.Background()
	db, _ := searcher(t)
	shared, err := NewSearcher(ctx, db)
	if err != nil {
		t.Fatal(err)
	}
	b := Budget{AreaMM2: 48}
	for i, obj := range []Objective{ObjMPThroughput, ObjSTPerf} {
		got, err := shared.Search(ctx, OrgCompositeFull, obj, b)
		if err != nil {
			t.Fatal(err)
		}
		if hits := shared.fronts.hits.Load(); hits != int64(i) {
			t.Errorf("objective %d: %d fronts reused after %d searches, want %d", obj, hits, i+1, i)
		}
		fresh, err := NewSearcher(ctx, db)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.Search(ctx, OrgCompositeFull, obj, b)
		if err != nil {
			t.Fatal(err)
		}
		if got.Cores != want.Cores || math.Float64bits(got.Score) != math.Float64bits(want.Score) {
			t.Errorf("objective %d: shared Searcher found %v (%v), a fresh one %v (%v)", obj, got.Cores, got.Score, want.Cores, want.Score)
		}
	}
}
