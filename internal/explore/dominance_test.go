// Tests for the dominance skip of CMP-search passes: the dominators a front
// computes, the single-thread weight precondition, and searches that skip
// dominated trials finding exactly what searches that skip none find.

package explore

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"compisa/internal/workload"
)

// dominatesAll reports whether k's signed values are at least j's at every
// region.
func dominatesAll(k, j *Candidate, edp bool) bool {
	vk, sign := mpValues(k, edp)
	vj, _ := mpValues(j, edp)
	for r := range vj {
		if !(sign*vk[r] >= sign*vj[r]) {
			return false
		}
	}
	return true
}

func allFinite(c *Candidate, edp bool) bool {
	v, _ := mpValues(c, edp)
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// TestDominators: over the search fixture's candidates, in list order and
// reversed, and with +Inf and -Inf copies added, every chosen dominator is
// earlier, dominates, has only finite values and is the cheapest such
// entry (the lowest index among equally cheap ones); an entry with no
// dominator has no earlier finite entry that dominates it, and a
// non-finite entry is never dominated.
func TestDominators(t *testing.T) {
	cands := searchFixtureCands(len(workload.Regions()))
	inf, negInf := scaledCandidate(cands[7], 2, 0.5), scaledCandidate(cands[7], 0.5, 2)
	inf.Speedup[1], inf.NormEDP[1] = math.Inf(1), math.Inf(-1)
	negInf.Speedup[1], negInf.NormEDP[1] = math.Inf(-1), math.Inf(1)
	withInf := slices.Concat([]*Candidate{inf}, cands, []*Candidate{negInf})
	reversed := slices.Clone(cands)
	slices.Reverse(reversed)
	cost := func(c *Candidate) float64 { return c.PeakW + c.AreaMM2/10 }
	for _, cs := range [][]*Candidate{cands, reversed, withInf} {
		for _, edp := range []bool{false, true} {
			dom, err := dominators(context.Background(), cs, edp)
			if err != nil {
				t.Fatal(err)
			}
			if len(dom) != len(cs) {
				t.Fatalf("edp=%v: %d dominators for %d entries", edp, len(dom), len(cs))
			}
			found := 0
			for j, c := range cs {
				k := int(dom[j])
				if k < 0 {
					if !allFinite(c, edp) {
						continue
					}
					for i := range j {
						if allFinite(cs[i], edp) && dominatesAll(cs[i], c, edp) {
							t.Errorf("edp=%v: entry %d has no dominator, but entry %d dominates it", edp, j, i)
						}
					}
					continue
				}
				found++
				switch {
				case k >= j:
					t.Errorf("edp=%v: entry %d's dominator %d is not earlier", edp, j, k)
				case !allFinite(c, edp) || !allFinite(cs[k], edp):
					t.Errorf("edp=%v: entry %d's dominator %d involves a non-finite value", edp, j, k)
				case !dominatesAll(cs[k], c, edp):
					t.Errorf("edp=%v: entry %d's dominator %d does not dominate it", edp, j, k)
				}
				for i := range j {
					if i == k || !allFinite(cs[i], edp) || !dominatesAll(cs[i], c, edp) {
						continue
					}
					if cost(cs[i]) < cost(cs[k]) || cost(cs[i]) == cost(cs[k]) && i < k {
						t.Errorf("edp=%v: entry %d's dominator %d is not the cheapest: %d dominates it at cost %g < %g",
							edp, j, k, i, cost(cs[i]), cost(cs[k]))
					}
				}
			}
			if found == 0 {
				t.Errorf("edp=%v: no entry has a dominator: the fixture exercises nothing", edp)
			}
		}
	}
}

// TestSuiteWeightsSkipST: every region weight of the suite is finite and
// non-negative, so single-thread passes skip dominated trials; a negative,
// NaN or infinite weight turns that off.
func TestSuiteWeightsSkipST(t *testing.T) {
	regions := workload.Regions()
	for _, r := range regions {
		if !(r.Weight >= 0) || math.IsInf(r.Weight, 0) {
			t.Errorf("region %s has weight %v", r.Name, r.Weight)
		}
	}
	if !newSuiteIndex(regions).stSkip {
		t.Error("the suite's weights turn the single-thread skip off")
	}
	for _, w := range []float64{-0.25, math.NaN(), math.Inf(1)} {
		bad := slices.Clone(regions)
		bad[len(bad)/2].Weight = w
		if newSuiteIndex(bad).stSkip {
			t.Errorf("weight %v leaves the single-thread skip on", w)
		}
	}
}

// searchNoSkip is searchCounted over a fresh front memo whose front has no
// dominators, so the search skips no trial.
func searchNoSkip(ctx context.Context, spec SearchSpec, si *suiteIndex) (CMP, searchCounts, error) {
	fm := newFrontMemo()
	edp := spec.Objective == ObjMPEDP || spec.Objective == ObjSTEDP
	f, err := fm.front(ctx, survivors(spec), edp, spec.MaxCandidates)
	if err != nil {
		return CMP{}, searchCounts{}, err
	}
	f.dom = make([]int32, len(f.cands))
	for i := range f.dom {
		f.dom[i] = -1
	}
	return searchCounted(ctx, spec, si, fm)
}

// sameCMP reports whether a and b have the same cores and score bits.
func sameCMP(a, b CMP) bool {
	return a.Cores == b.Cores && math.Float64bits(a.Score) == math.Float64bits(b.Score)
}

// TestSearchDominanceSkip: every heterogeneous fixture search finds the
// same CMP, score bits and slot passes whether it skips dominated trials or
// not; the dominance cases skip some trials in every objective.
func TestSearchDominanceSkip(t *testing.T) {
	ctx := context.Background()
	regions := workload.Regions()
	si := newSuiteIndex(regions)
	cands := searchFixtureCands(len(regions))
	skipped := map[Objective]int64{}
	for _, tc := range searchFixtureCases(cands) {
		if tc.spec.Homogeneous {
			continue
		}
		got, n, err := searchCounted(ctx, tc.spec, si, newFrontMemo())
		if err != nil {
			t.Fatalf("%s: %v", tc.key, err)
		}
		want, m, err := searchNoSkip(ctx, tc.spec, si)
		if err != nil {
			t.Fatalf("%s: %v", tc.key, err)
		}
		t.Logf("%s: %d passes, %d trials skipped, %d screened, %d scored (without the skip: %d screened, %d scored)",
			tc.key, n.passesRun, n.skipped, n.screened, n.exact, m.screened, m.exact)
		if !sameCMP(got, want) {
			t.Errorf("%s: skipping search found %v (%v), non-skipping %v (%v)", tc.key, got.Cores, got.Score, want.Cores, want.Score)
		}
		if n.passesRun != m.passesRun || n.passesReused != m.passesReused || m.skipped != 0 {
			t.Errorf("%s: passes %d+%d with the skip, %d+%d (%d skipped) without", tc.key,
				n.passesRun, n.passesReused, m.passesRun, m.passesReused, m.skipped)
		}
		// The skip takes its trials from those the screen would see, or,
		// unscreened, from those the exact scorer would.
		if m.screened > 0 && n.skipped+n.screened != m.screened || m.screened == 0 && n.skipped+n.exact != m.exact {
			t.Errorf("%s: %d skipped, %d screened, %d scored with the skip; %d screened, %d scored without",
				tc.key, n.skipped, n.screened, n.exact, m.screened, m.exact)
		}
		if strings.HasPrefix(tc.key, "dominance ") {
			skipped[tc.spec.Objective] += n.skipped
		}
	}
	for _, obj := range []Objective{ObjMPThroughput, ObjMPEDP, ObjSTPerf, ObjSTEDP} {
		if skipped[obj] == 0 {
			t.Errorf("objective %d: the dominance cases skipped no trial", obj)
		}
	}
}

// TestSearchDominanceRealSuite: real-suite composite-full searches at
// 48 mm², multi-programmed and single-thread, skip dominated trials and
// find the same CMP, score bits and counts on one processor and on four,
// and the same CMP and score bits as a search that skips nothing.
func TestSearchDominanceRealSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("search suite in long mode only")
	}
	if raceEnabled {
		t.Skip("full-suite search too slow under the race detector; TestSearchDominanceSkip covers the skip")
	}
	ctx := context.Background()
	_, s := searcher(t)
	cs, err := s.Candidates(ctx, OrgCompositeFull)
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, obj := range []Objective{ObjMPThroughput, ObjSTPerf} {
		spec := SearchSpec{Candidates: cs, Budget: Budget{AreaMM2: 48}, Objective: obj}
		var got [2]CMP
		var n [2]searchCounts
		for i, procs := range []int{1, 4} {
			runtime.GOMAXPROCS(procs)
			got[i], n[i], err = searchCounted(ctx, spec, s.si, newFrontMemo())
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("objective %d, GOMAXPROCS=%d: %d passes, %d trials skipped, %d screened, %d scored, %d accepted",
				obj, procs, n[i].passesRun, n[i].skipped, n[i].screened, n[i].exact, n[i].accepted)
		}
		if n[0].skipped == 0 {
			t.Errorf("objective %d: no trial was skipped: the skip is vacuous", obj)
		}
		if obj == ObjMPThroughput && n[0].exact != n[0].accepted {
			t.Errorf("objective %d: %d trials scored exactly, %d accepted: the screen passed ties", obj, n[0].exact, n[0].accepted)
		}
		if !sameCMP(got[0], got[1]) || n[0] != n[1] {
			t.Errorf("objective %d: GOMAXPROCS=1 found %v (%v, %+v), GOMAXPROCS=4 %v (%v, %+v)",
				obj, got[0].Cores, got[0].Score, n[0], got[1].Cores, got[1].Score, n[1])
		}
		want, m, err := searchNoSkip(ctx, spec, s.si)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("objective %d without the skip: %d screened, %d scored", obj, m.screened, m.exact)
		if !sameCMP(got[0], want) {
			t.Errorf("objective %d: skipping search found %v (%v), non-skipping %v (%v)", obj, got[0].Cores, got[0].Score, want.Cores, want.Score)
		}
	}
}

// TestSearchScreenRejectsTies: in a pool of two candidates with identical
// values every trial ties its climb point. Such a tie clears the floor the
// constant screenTol ceiling would set, but not the floor of the search's
// own tolerance, so the search screens trials and scores none exactly.
// Over the MP-throughput fixture searches whose tolerance is below the
// 1e-12 acceptance epsilon, every exact score is an accepted trial.
func TestSearchScreenRejectsTies(t *testing.T) {
	ctx := context.Background()
	regions := workload.Regions()
	si := newSuiteIndex(regions)
	choices := CompositeChoices()
	a := scaledCandidate(randomCandidate(rand.New(rand.NewSource(3)), len(regions), false), 0.5, 1)
	twin := scaledCandidate(a, 1, 1.2)
	a.DP.ISA, twin.DP.ISA = choices[0], choices[1]
	spec := SearchSpec{Candidates: []*Candidate{a, twin}, Objective: ObjMPThroughput}
	tol, ok := si.screenSound(spec.Candidates, false)
	if !ok {
		t.Fatal("the twins' search is not screened")
	}
	cur := [4]*Candidate{a, a, twin, twin}
	score := si.scoreMP(&cur, false)
	rest := make([][4]float64, len(si.steps))
	for slot := range cur {
		si.restTable(&cur, slot, false, rest)
		for _, c := range spec.Candidates {
			trial := cur
			trial[slot] = c
			if s := si.scoreMP(&trial, false); math.Float64bits(s) != math.Float64bits(score) {
				t.Fatalf("slot %d: trial scores %v, climb point %v: not a tie", slot, s, score)
			}
			screen := si.screenMP(c, false, rest)
			if !(screen > score+1e-12-screenTol) || screen > score+1e-12-tol {
				t.Errorf("slot %d: tie screens %v against floors %v (screenTol) and %v (tolerance %g)",
					slot, screen, score+1e-12-screenTol, score+1e-12-tol, tol)
			}
		}
	}
	_, n, err := searchCounted(ctx, spec, si, newFrontMemo())
	if err != nil {
		t.Fatal(err)
	}
	if n.screened == 0 || n.exact != 0 || n.accepted != 0 {
		t.Errorf("twins: %d screened, %d scored, %d accepted; want ties screened and none scored", n.screened, n.exact, n.accepted)
	}

	cands := searchFixtureCands(len(regions))
	for _, tc := range searchFixtureCases(cands) {
		tol, ok := si.screenSound(tc.spec.Candidates, false)
		if tc.spec.Objective != ObjMPThroughput || tc.spec.Homogeneous || !ok || tol >= 1e-12 {
			continue
		}
		_, n, err := searchCounted(ctx, tc.spec, si, newFrontMemo())
		if err != nil {
			t.Fatalf("%s: %v", tc.key, err)
		}
		t.Logf("%s: tolerance %g, %d screened, %d scored, %d accepted", tc.key, tol, n.screened, n.exact, n.accepted)
		if n.screened == 0 || n.exact != n.accepted {
			t.Errorf("%s: %d trials scored exactly, %d accepted", tc.key, n.exact, n.accepted)
		}
	}
}

// TestFrontTablesCancelled: dominators and stepMaxes, which fill their
// tables on the par pool, return a cancelled ctx's error and no table.
func TestFrontTablesCancelled(t *testing.T) {
	regions := workload.Regions()
	si := newSuiteIndex(regions)
	cs := make([]*Candidate, 100)
	for i := range cs {
		cs[i] = fakeCandidate(len(regions), 1+float64(i%7), 1, 10, 12)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if dom, err := dominators(ctx, cs, false); err == nil || dom != nil {
		t.Errorf("dominators under a cancelled ctx: %v, %v", dom, err)
	}
	if sm, err := si.stepMaxes(ctx, cs, false); err == nil || sm != nil {
		t.Errorf("stepMaxes under a cancelled ctx: %v, %v", sm, err)
	}
}
