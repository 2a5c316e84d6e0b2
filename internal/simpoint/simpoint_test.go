package simpoint

import (
	"fmt"
	"testing"

	"compisa/internal/compiler"
	"compisa/internal/ir"
	"compisa/internal/isa"
	"compisa/internal/mem"
	"compisa/internal/workload"
)

// twoPhaseProgram: a loop of integer arithmetic followed by a loop of
// memory traffic — two clearly distinct phases.
func twoPhaseProgram(t *testing.T) (*irProg, *mem.Memory) {
	t.Helper()
	b := ir.NewBuilder("twophase")
	l1, l2, exit := b.Block("l1"), b.Block("l2"), b.Block("exit")
	base := b.Const(ir.Ptr, 0x08000000)
	i := b.Const(ir.I32, 0)
	acc := b.Const(ir.I32, 1)
	lim := b.Const(ir.I32, 4000)
	b.Br(l1)
	b.SetBlock(l1)
	b.Assign(acc, ir.Add, ir.I32, acc, acc)
	b.Assign(acc, ir.Xor, ir.I32, acc, i)
	b.AddImm(i, i, ir.I32, 1)
	c := b.Cmp(ir.LT, ir.I32, i, lim)
	b.CondBr(c, l1, l2, 0.99)
	b.SetBlock(l2)
	idx := b.Bin(ir.And, ir.I32, i, b.Const(ir.I32, 1023))
	b.Store(ir.I32, acc, base, idx, 4, 0)
	v := b.Load(ir.I32, base, idx, 4, 0)
	b.Assign(acc, ir.Add, ir.I32, acc, v)
	b.AddImm(i, i, ir.I32, 1)
	c2 := b.Cmp(ir.LT, ir.I32, i, b.Const(ir.I32, 8000))
	b.CondBr(c2, l2, exit, 0.99)
	b.SetBlock(exit)
	b.Ret(acc)
	return &irProg{f: b.F}, mem.New()
}

type irProg struct{ f *ir.Func }

func TestBBVAndKMeansSeparatePhases(t *testing.T) {
	p, m := twoPhaseProgram(t)
	prog, err := compiler.Compile(p.f, isa.X8664, compiler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ivs, err := CollectBBV(prog, m, 2000, 10_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(ivs) < 8 {
		t.Fatalf("expected several intervals, got %d", len(ivs))
	}
	phases := KMeans(ivs, 2, 1)
	if len(phases) < 2 {
		t.Fatalf("two-phase program should yield >= 2 clusters, got %d", len(phases))
	}
	// The two phases must be genuinely distinct code (disjoint dominant
	// basic blocks) and ordered in time.
	r0, r1 := phases[0].Representative, phases[1].Representative
	if d := dist2(ivs[r0].Vector, ivs[r1].Vector); d < 0.5 {
		t.Errorf("phase representatives should differ strongly, dist2 = %f", d)
	}
	// The two clusters must be temporally separated: order them by their
	// representatives and check that at most one boundary interval of the
	// later cluster precedes the earlier cluster's last member.
	a, b := phases[0], phases[1]
	if ivs[a.Representative].Start > ivs[b.Representative].Start {
		a, b = b, a
	}
	maxA := int64(-1)
	for _, m := range a.Members {
		if ivs[m].Start > maxA {
			maxA = ivs[m].Start
		}
	}
	straddlers := 0
	for _, m := range b.Members {
		if ivs[m].Start < maxA {
			straddlers++
		}
	}
	if straddlers > 1 {
		t.Errorf("phases should be temporally separated; %d straddlers", straddlers)
	}
	// Weights sum to 1.
	sum := 0.0
	for _, ph := range phases {
		sum += ph.Weight
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("weights sum to %f", sum)
	}
}

func TestKMeansDeterministic(t *testing.T) {
	p, m := twoPhaseProgram(t)
	prog, err := compiler.Compile(p.f, isa.X8664, compiler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ivs, err := CollectBBV(prog, m, 2000, 10_000_000)
	if err != nil {
		t.Fatal(err)
	}
	a := KMeans(ivs, 3, 1)
	b := KMeans(ivs, 3, 1)
	if len(a) != len(b) {
		t.Fatal("nondeterministic cluster count")
	}
	for i := range a {
		if a[i].Representative != b[i].Representative || a[i].Weight != b[i].Weight {
			t.Fatal("nondeterministic clustering")
		}
	}
}

func TestBBVOnWorkloadRegion(t *testing.T) {
	var reg workload.Region
	for _, r := range workload.Regions() {
		if r.Name == "bzip2.0" {
			reg = r
		}
	}
	f, m, err := reg.Build(64)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := compiler.Compile(f, isa.X8664, compiler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ivs, err := CollectBBV(prog, m, 5000, 40_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(ivs) == 0 {
		t.Fatal("no intervals collected")
	}
	phases := KMeans(ivs, 6, 2)
	if len(phases) == 0 {
		t.Fatal("no phases")
	}
	// Structural invariants: every interval assigned exactly once,
	// weights sum to 1, representatives are members of their own cluster.
	covered := map[int]bool{}
	sum := 0.0
	for _, ph := range phases {
		sum += ph.Weight
		repOK := false
		for _, m := range ph.Members {
			if covered[m] {
				t.Fatalf("interval %d assigned twice", m)
			}
			covered[m] = true
			if m == ph.Representative {
				repOK = true
			}
		}
		if !repOK {
			t.Error("representative not a member of its cluster")
		}
	}
	if len(covered) != len(ivs) {
		t.Errorf("clusters cover %d of %d intervals", len(covered), len(ivs))
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("weights sum to %f", sum)
	}
}

func TestCollectBBVValidatesInterval(t *testing.T) {
	if _, err := CollectBBV(nil, nil, 0, 0); err == nil {
		t.Fatal("zero interval length must error")
	}
}

// TestSimpointRerunIdentical: collecting and clustering one region again
// reports the same phases, as compose-simpoint prints them. The vector
// normalization and the k-means distances once summed over Go maps, whose
// random order let bzip2.6 report rep@8 on one run and rep@9 on the next.
func TestSimpointRerunIdentical(t *testing.T) {
	var reg workload.Region
	for _, r := range workload.Regions() {
		if r.Name == "bzip2.6" {
			reg = r
		}
	}
	var first string
	for i := 0; i < 200; i++ {
		f, m, err := reg.Build(64)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := compiler.Compile(f, isa.X8664, compiler.Options{})
		if err != nil {
			t.Fatal(err)
		}
		ivs, err := CollectBBV(prog, m, 5000, 100_000_000)
		if err != nil {
			t.Fatal(err)
		}
		got := ""
		for _, ph := range KMeans(ivs, 8, 1) {
			got += fmt.Sprintf(" [rep@%d w=%.2f]", ph.Representative, ph.Weight)
		}
		if i == 0 {
			first = got
		} else if got != first {
			t.Fatalf("rerun %d reports%s, the first run%s", i, got, first)
		}
	}
}
