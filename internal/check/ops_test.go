package check

import (
	"fmt"
	"strings"
	"testing"

	"compisa/internal/code"
	"compisa/internal/cpu"
	"compisa/internal/mem"
)

// TestOpsModelMatchesCodeTable cross-checks the verifier's independently
// derived use/def model against the operand classes of the shared code
// table: for every opcode, fpSrc must agree with Op.FPSources, and the
// register instrDefs reports for Dst must be an integer register exactly
// when Op.IntDst holds and an FP register exactly when Op.IsFP holds.
func TestOpsModelMatchesCodeTable(t *testing.T) {
	const dst = 5
	for o := 0; o < 256; o++ {
		op := code.Op(o)
		if got, want := fpSrc(op), op.FPSources(); got != want {
			t.Errorf("%v: fpSrc %v, code.Op.FPSources %v", op, got, want)
		}
		in := ins(op, func(in *code.Instr) { in.Dst = dst })
		var intDef, fpDef bool
		for _, d := range instrDefs(&in, nil) {
			intDef = intDef || d == resInt(dst)
			fpDef = fpDef || d == resFP(dst)
		}
		if intDef != op.IntDst() || fpDef != op.IsFP() {
			t.Errorf("%v: instrDefs writes int %v, fp %v; code table says IntDst %v, IsFP %v",
				op, intDef, fpDef, op.IntDst(), op.IsFP())
		}
	}
}

// TestBranchVerdictMatchesExecution pins the contract between the constant
// domain and the executor: when a flag-setting op with constant operands
// feeds a JCC, the branch rule proves the branch always or never taken,
// and cpu.Run takes it exactly when the rule says "always". It covers
// every condition code, widths 1, 4 and 8, and the operand edges where the
// carry, overflow and sign flags turn.
func TestBranchVerdictMatchesExecution(t *testing.T) {
	ccs := []code.CC{code.CCEQ, code.CCNE, code.CCLT, code.CCLE, code.CCGT,
		code.CCGE, code.CCB, code.CCBE, code.CCA, code.CCAE}
	ops := []code.Op{code.CMP, code.SUB, code.ADD, code.TEST}
	cases := 0
	for _, sz := range []uint8{1, 4, 8} {
		mask := code.SzMask(sz)
		sign := mask>>1 + 1
		edges := []uint64{0, 1, mask, sign - 1, sign, sign + 1}
		for _, op := range ops {
			for _, a := range edges {
				for _, b := range edges {
					for _, cc := range ccs {
						name := fmt.Sprintf("%v.%d %#x,%#x j%v", op, sz, a, b, cc)
						p := build(t, permissive,
							ins(code.MOV, func(in *code.Instr) { in.Sz, in.Dst, in.HasImm, in.Imm = sz, 0, true, int64(a) }),
							ins(code.MOV, func(in *code.Instr) { in.Sz, in.Dst, in.HasImm, in.Imm = sz, 1, true, int64(b) }),
							ins(op, func(in *code.Instr) {
								in.Sz, in.Src1, in.Src2 = sz, 0, 1
								if op.IntDst() {
									in.Dst = 0
								}
							}),
							ins(code.JCC, func(in *code.Instr) { in.CC, in.Target = cc, 6 }),
							movImm(2, 0),
							ins(code.RET, func(in *code.Instr) { in.Src1 = 2 }),
							movImm(2, 1),
							ins(code.RET, func(in *code.Instr) { in.Src1 = 2 }),
						)
						verdict := ""
						for _, f := range AnalyzeOpts(p, Options{Rules: []string{RuleBranch}}).Findings {
							switch {
							case f.Index != 3:
							case strings.Contains(f.Detail, "always taken"):
								verdict = "always"
							case strings.Contains(f.Detail, "never taken"):
								verdict = "never"
							}
						}
						res, err := cpu.Run(p, cpu.NewState(mem.New()), 100, nil)
						if err != nil {
							t.Fatalf("%s: run: %v", name, err)
						}
						taken := map[uint64]string{0: "never", 1: "always"}[res.Ret]
						if verdict != taken {
							t.Errorf("%s: branch rule says %q, executor: %q", name, verdict, taken)
						}
						cases++
					}
				}
			}
		}
	}
	t.Logf("%d cases", cases)
}
