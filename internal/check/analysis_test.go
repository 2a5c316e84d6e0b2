package check

import (
	"slices"
	"testing"
	"time"

	"compisa/internal/code"
)

// Adversarial CFG shapes for the analysis engine: irreducible two-entry
// cycles, self-loops, empty programs, RET-shadowed blocks, and a kilo-block
// chain as a linearity canary.

// twoEntryCycle builds the canonical irreducible region: the entry branches
// into the middle of a cycle A⇄B, so neither cycle block dominates the
// other.
func twoEntryCycle(t *testing.T) *code.Program {
	return build(t, permissive,
		ldData(1),
		ins(code.CMP, func(in *code.Instr) { in.Src1 = 1; in.HasImm = true; in.Imm = 0 }),
		ins(code.JCC, func(in *code.Instr) { in.CC = code.CCEQ; in.Target = 5 }),
		// A:
		ins(code.ADD, func(in *code.Instr) { in.Dst = 2; in.Src1 = 2; in.HasImm = true; in.Imm = 1 }),
		ins(code.JMP, func(in *code.Instr) { in.Target = 5 }),
		// B:
		ins(code.ADD, func(in *code.Instr) { in.Dst = 3; in.Src1 = 3; in.HasImm = true; in.Imm = 1 }),
		ins(code.CMP, func(in *code.Instr) { in.Src1 = 1; in.HasImm = true; in.Imm = 1 }),
		ins(code.JCC, func(in *code.Instr) { in.CC = code.CCNE; in.Target = 3 }),
		ins(code.RET, func(in *code.Instr) { in.Src1 = 1 }),
	)
}

func TestIrreducibleTwoEntryCycle(t *testing.T) {
	p := twoEntryCycle(t)
	g := recoverCFG(p)
	a, b := g.BlockOf(3), g.BlockOf(5)
	if !slices.Contains(g.Blocks[a].Preds, 0) || !slices.Contains(g.Blocks[b].Preds, 0) ||
		!slices.Contains(g.Blocks[a].Preds, b) || !slices.Contains(g.Blocks[b].Preds, a) {
		t.Fatalf("blocks %d/%d are not a cycle entered at both ends: %+v", a, b, g.Blocks)
	}
	// The fixpoint must terminate on the multi-entry cycle, and the clean
	// program must stay finding-free.
	if rep := Analyze(p); len(rep.Findings) != 0 {
		t.Errorf("irreducible cycle produced findings: %v", rep.Findings)
	}
}

// selfLoop is the canonical counted loop collapsed to one block:
// r1 = 0; L: r1++; CMP r1,$10; JL L; RET — exactly 10 trips.
func selfLoop(t *testing.T) *code.Program {
	return build(t, permissive,
		movImm(1, 0),
		ins(code.ADD, func(in *code.Instr) { in.Dst = 1; in.Src1 = 1; in.HasImm = true; in.Imm = 1 }),
		ins(code.CMP, func(in *code.Instr) { in.Src1 = 1; in.HasImm = true; in.Imm = 10 }),
		ins(code.JCC, func(in *code.Instr) { in.CC = code.CCLT; in.Target = 1 }),
		ins(code.RET, func(in *code.Instr) { in.Src1 = 1 }),
	)
}

// TestCountedSelfLoop: the constant domain widens the induction register
// over the loop's ten trips instead of calling the exit branch constant,
// so the clean counted loop is finding-free.
func TestCountedSelfLoop(t *testing.T) {
	p := selfLoop(t)
	a := newAnalysis(p)
	if a.cfgErr != nil {
		t.Fatal(a.cfgErr)
	}
	loop := a.cfg.BlockOf(1)
	if !slices.Contains(a.cfg.Blocks[loop].Succs, loop) {
		t.Fatalf("block %d is not a self-loop: %+v", loop, a.cfg.Blocks)
	}
	if k := a.branchFacts()[loop]; k != branchUnknown {
		t.Errorf("counted loop's exit branch classified %d, want unknown", k)
	}
	if rep := Analyze(p); len(rep.Findings) != 0 {
		t.Errorf("clean counted loop produced findings: %v", rep.Findings)
	}
}

func TestEmptyProgram(t *testing.T) {
	p := &code.Program{Name: "empty", FS: permissive}
	rep := Analyze(p) // must classify, not panic
	if len(rep.Findings) == 0 {
		t.Error("Analyze on empty program: want structural finding")
	}
}

// TestRETShadowedBlock: code shadowed by an unconditional RET is reported
// by the dead-block rule and ONLY the dead-block rule — the shadowed
// block's illegal memory access must not leak through any value- or
// join-point analysis (it is pruned from their domains).
func TestRETShadowedBlock(t *testing.T) {
	p := build(t, permissive,
		ldData(1),
		ins(code.RET, func(in *code.Instr) { in.Src1 = 1 }),
		// Shadowed: an out-of-window load that memrange would reject.
		ins(code.LD, func(in *code.Instr) { in.Dst = 2; in.HasMem = true; in.Mem.Disp = 0x10 }),
		ins(code.RET, func(in *code.Instr) { in.Src1 = 2 }),
	)
	rep := Analyze(p)
	if len(rep.Findings) == 0 {
		t.Fatal("RET-shadowed block produced no findings, want deadblock")
	}
	for _, f := range rep.Findings {
		if f.Rule != RuleDeadBlock {
			t.Errorf("unexpected rule %q fired on shadowed code: %s", f.Rule, f.Detail)
		}
	}
	g := recoverCFG(p)
	if b := g.Blocks[g.BlockOf(2)]; b.Start != 2 || b.Reachable {
		t.Errorf("shadowed block = %+v, want an unreachable block starting at the shadowed instruction", b)
	}
}

// chain builds n-1 single-JMP blocks ending in RET: the linearity canary.
func chain(t *testing.T, n int) *code.Program {
	t.Helper()
	instrs := make([]code.Instr, 0, n)
	for i := 0; i < n-1; i++ {
		tgt := int32(i + 1)
		instrs = append(instrs, ins(code.JMP, func(in *code.Instr) { in.Target = tgt }))
	}
	instrs = append(instrs, ins(code.RET, nil))
	return build(t, permissive, instrs...)
}

func TestKiloBlockChain(t *testing.T) {
	const n = 1000
	p := chain(t, n)
	start := time.Now()
	rep := Analyze(p)
	elapsed := time.Since(start)
	if len(rep.Findings) != 0 {
		t.Errorf("clean chain produced findings: %v", rep.Findings[0])
	}
	a := newAnalysis(p)
	if len(a.cfg.Blocks) != n {
		t.Fatalf("chain recovered %d blocks, want %d", len(a.cfg.Blocks), n)
	}
	for i, b := range a.reversePostorder() {
		if b != i {
			t.Fatalf("reverse postorder[%d] = %d, want the chain order", i, b)
		}
	}
	// A linear pass clears 1000 blocks in milliseconds; this bound only
	// trips if someone regresses to a quadratic-or-worse algorithm (a
	// fixpoint sweep converging one block per pass, say).
	if elapsed > 3*time.Second {
		t.Errorf("1000-block chain took %v — analysis is no longer linear-ish", elapsed)
	}
	if testing.Short() {
		return
	}
	// Long mode: 20x the blocks with the same generous budget, so even a
	// mildly super-linear implementation surfaces before users feel it.
	p = chain(t, 20*n)
	start = time.Now()
	Analyze(p)
	if elapsed = time.Since(start); elapsed > 5*time.Second {
		t.Errorf("20k-block chain took %v — analysis is super-linear", elapsed)
	}
}
