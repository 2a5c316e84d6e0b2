package compiler

import (
	"testing"

	"compisa/internal/code"
	"compisa/internal/cpu"
	"compisa/internal/isa"
)

// TestDifferentialAlpha64 is the cross-target backbone test: every kernel
// compiled for the x86-ized Alpha feature set must compute the identical
// checksum whether it is encoded for the default x86 target or the alpha64
// fixed-length target, and both must match the IR interpreter.
func TestDifferentialAlpha64(t *testing.T) {
	for _, k := range allKernels() {
		want := reference(t, k, 64)
		gotX86, _, _ := compileAndRun(t, k, isa.X86izedAlpha, Options{})
		gotAlpha, prog, _ := compileAndRun(t, k, isa.X86izedAlpha, Options{Target: "alpha64"})
		if gotX86 != want {
			t.Errorf("%s x86: got %#x want %#x", k.name, gotX86, want)
		}
		if gotAlpha != want {
			t.Errorf("%s alpha64: got %#x want %#x", k.name, gotAlpha, want)
		}
		if prog.Target != "alpha64" {
			t.Errorf("%s: program target = %q, want alpha64", k.name, prog.Target)
		}
		if prog.Size != 4*len(prog.Instrs) {
			t.Errorf("%s: fixed-length layout broken: %d bytes for %d instrs",
				k.name, prog.Size, len(prog.Instrs))
		}
	}
}

// TestAlpha64LegalizationUnderPressure forces heavy spilling at shallow
// register depth so spill traffic flows through the reserved spill-base
// register, and checks both semantics and target legality.
func TestAlpha64LegalizationUnderPressure(t *testing.T) {
	k := kernel{"pressure", pressureKernel}
	want := reference(t, k, 64)
	for _, depth := range []int{16} {
		fs := isa.MustNew(isa.MicroX86, 64, depth, isa.PartialPredication)
		f, m := k.build(fs.Width)
		prog, err := Compile(f, fs, Options{Target: "alpha64"})
		if err != nil {
			t.Fatalf("depth %d: %v", depth, err)
		}
		if prog.Stats.RefillLoads == 0 {
			t.Fatalf("depth %d: pressure kernel did not spill", depth)
		}
		tgt := &isa.Alpha64Target
		for i := range prog.Instrs {
			if err := code.TargetCheck(&prog.Instrs[i], tgt); err != nil {
				t.Fatalf("depth %d [%d] %s: %v", depth, i, code.FormatInstr(&prog.Instrs[i]), err)
			}
		}
		st := cpu.NewState(m)
		res, err := cpu.Run(prog, st, 50_000_000, nil)
		if err != nil {
			t.Fatalf("depth %d: run: %v", depth, err)
		}
		if got := res.Ret & 0xffffffff; got != want {
			t.Errorf("depth %d: got %#x want %#x", depth, got, want)
		}
	}
}

// TestAlpha64RejectsUnsupportedFeatureSets pins the SupportsFS gate: feature
// sets outside the alpha64 encoding envelope fail loudly at compile time.
func TestAlpha64RejectsUnsupportedFeatureSets(t *testing.T) {
	bad := []isa.FeatureSet{
		isa.X8664,        // full x86 complexity needs memory operands
		isa.Superset,     // SIMD + full predication
		isa.X86izedThumb, // width 32 needs carry pairs
		isa.MustNew(isa.MicroX86, 64, 64, isa.PartialPredication), // depth 64 > 32 regs
	}
	for _, fs := range bad {
		f, _ := sumLoopKernel(64)
		if _, err := Compile(f, fs, Options{Target: "alpha64"}); err == nil {
			t.Errorf("%s: expected alpha64 compile to fail", fs.ShortName())
		}
	}
	f, _ := sumLoopKernel(64)
	if _, err := Compile(f, isa.X86izedAlpha, Options{Target: "bogus"}); err == nil {
		t.Error("unknown target must fail")
	}
}

// TestBuildImm pins the ld-imm splitting sequences: value correctness is
// covered end to end by the differential tests; here we check shape.
func TestBuildImm(t *testing.T) {
	cases := []struct {
		v      int64
		sz     uint8
		maxLen int
	}{
		{0, 8, 1},
		{42, 8, 1},
		{-42, 8, 8}, // all-ones upper chunks: MOV 0/OR + 3x(SHL+OR)
		{0x7fff, 8, 1},
		{0x8000, 8, 3}, // mov 0; or; shl... leading chunk 0x8000 at k=0? built as MOV 0/OR
		{0x12345678, 4, 3},
		{int64(int32(-1)), 4, 4},
		{0x7000_0000, 8, 2}, // spill base: MOV 0x7000 / SHL 16
	}
	for _, c := range cases {
		seq := buildImm(5, c.v, c.sz)
		if len(seq) == 0 || len(seq) > c.maxLen {
			t.Errorf("buildImm(%#x, sz%d): %d instrs, want 1..%d", c.v, c.sz, len(seq), c.maxLen)
		}
		for i := range seq {
			if !code.ImmOK(seq[i].Op, seq[i].Imm, &isa.Alpha64Target) {
				t.Errorf("buildImm(%#x): instr %d imm %#x not encodable", c.v, i, seq[i].Imm)
			}
		}
	}
}
