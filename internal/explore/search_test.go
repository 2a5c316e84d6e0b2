package explore

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"

	"compisa/internal/golden"
	"compisa/internal/workload"
)

// searchFixtureCands draws the 36 seeded random candidates of
// TestSearchScreenedMatchesExact.
func searchFixtureCands(n int) []*Candidate {
	rng := rand.New(rand.NewSource(5))
	choices := CompositeChoices()
	var cands []*Candidate
	for i := 0; i < 36; i++ {
		c := randomCandidate(rng, n, i%6 == 0)
		c.DP.ISA = choices[i%len(choices)]
		cands = append(cands, c)
	}
	return cands
}

// searchFixtureCase is one cell of testdata/search.golden.
type searchFixtureCase struct {
	key  string
	spec SearchSpec
}

// searchFixtureCases covers every objective under a power cap, an area cap
// and no cap, heterogeneous, plus one homogeneous search.
func searchFixtureCases(cands []*Candidate) []searchFixtureCase {
	objs := []struct {
		name string
		obj  Objective
	}{{"mp-throughput", ObjMPThroughput}, {"mp-edp", ObjMPEDP}, {"st-perf", ObjSTPerf}, {"st-edp", ObjSTEDP}}
	var out []searchFixtureCase
	for _, o := range objs {
		for _, b := range []Budget{{PeakW: 30}, {AreaMM2: 48}, {}} {
			out = append(out, searchFixtureCase{o.name + " " + b.String(),
				SearchSpec{Candidates: cands, Budget: b, Objective: o.obj}})
		}
	}
	hom := SearchSpec{Candidates: cands, Budget: Budget{PeakW: 30}, Objective: ObjMPThroughput, Homogeneous: true}
	return append(out, searchFixtureCase{"mp-throughput 30W homogeneous", hom})
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

// TestSearchCancelledPassNotReused cancels every heterogeneous fixture
// search halfway through its context checks, past its seeding and so inside
// its climbs: the search returns context.Canceled, and a fresh search of the
// same spec still returns the fixture's result.
func TestSearchCancelledPassNotReused(t *testing.T) {
	regions := workload.Regions()
	cands := searchFixtureCands(len(regions))
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
		}
		cmp, err := Search(context.Background(), tc.spec, regions)
		if err != nil {
			t.Fatalf("%s: %v", tc.key, err)
		}
		lines = append(lines, tc.key+"\t"+searchDigest(cands, cmp))
	}
	golden.Check(t, "search.golden", lines, false)
}
