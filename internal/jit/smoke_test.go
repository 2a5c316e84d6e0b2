package jit

import (
	"testing"

	"compisa/internal/code"
	"compisa/internal/cpu"
	"compisa/internal/encoding"
	"compisa/internal/isa"
	"compisa/internal/mem"
)

// Hand-program helpers mirroring the cpu package's test builders.

func ci(op code.Op, sz uint8) code.Instr {
	return code.Instr{Op: op, Sz: sz, Dst: code.NoReg, Src1: code.NoReg,
		Src2: code.NoReg, Pred: code.NoReg, Mem: code.Mem{Base: code.NoReg, Index: code.NoReg, Scale: 1}}
}

func movImm(dst code.Reg, v int64, sz uint8) code.Instr {
	in := ci(code.MOV, sz)
	in.Dst = dst
	in.HasImm, in.Imm = true, v
	return in
}

func alu(op code.Op, dst, src2 code.Reg, sz uint8) code.Instr {
	in := ci(op, sz)
	in.Dst, in.Src1, in.Src2 = dst, dst, src2
	return in
}

func retR(r code.Reg) code.Instr {
	in := ci(code.RET, 0)
	in.Src1 = r
	return in
}

func mkProg(t testing.TB, fs isa.FeatureSet, instrs ...code.Instr) *code.Program {
	t.Helper()
	p := &code.Program{Name: "hand", FS: fs, Instrs: instrs}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := encoding.Layout(p, code.CodeBase); err != nil {
		t.Fatal(err)
	}
	return p
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// runBoth executes p against the interpreter and the JIT on independent
// clones of the same initial memory, returning both outcomes.
func runBoth(t testing.TB, p *code.Program, m *mem.Memory, opts cpu.RunOptions) (resI, resJ cpu.ExecResult, evI, evJ []cpu.Event, stI, stJ *cpu.State, errI, errJ error) {
	t.Helper()
	if m == nil {
		m = mem.New()
	}
	stI = cpu.NewState(m.Clone())
	resI, errI = cpu.RunPredecoded(cpu.Predecode(p), stI, opts, func(ev *cpu.Event) { evI = append(evI, *ev) })

	eng := New(Config{})
	if !Available() {
		t.Skip("jit unavailable on this platform")
	}
	jopts := opts
	jopts.JIT = eng
	stJ = cpu.NewState(m.Clone())
	resJ, errJ = cpu.RunPredecoded(cpu.Predecode(p), stJ, jopts, func(ev *cpu.Event) { evJ = append(evJ, *ev) })
	if s := eng.Stats(); s.Runs == 0 {
		t.Fatalf("jit declined the run: %+v", s)
	}
	return
}

// checkSame asserts every observable matches between the two executions.
func checkSame(t testing.TB, resI, resJ cpu.ExecResult, evI, evJ []cpu.Event, stI, stJ *cpu.State, errI, errJ error) {
	t.Helper()
	if errString(errI) != errString(errJ) {
		t.Fatalf("error mismatch:\ninterp %v\njit    %v", errI, errJ)
	}
	if resI != resJ {
		t.Fatalf("ExecResult mismatch:\ninterp %+v\njit    %+v", resI, resJ)
	}
	if len(evI) != len(evJ) {
		t.Fatalf("event count mismatch: interp %d, jit %d", len(evI), len(evJ))
	}
	for j := range evI {
		if evI[j] != evJ[j] {
			t.Fatalf("event %d mismatch:\ninterp %+v\njit    %+v", j, evI[j], evJ[j])
		}
	}
	if stI.Int != stJ.Int {
		for r := range stI.Int {
			if stI.Int[r] != stJ.Int[r] {
				t.Errorf("r%d: interp %#x, jit %#x", r, stI.Int[r], stJ.Int[r])
			}
		}
		t.Fatal("integer state mismatch")
	}
	if stI.FP != stJ.FP {
		t.Fatal("fp state mismatch")
	}
	if stI.Flags != stJ.Flags {
		t.Fatalf("flag mismatch: interp %+v, jit %+v", stI.Flags, stJ.Flags)
	}
}

func TestJITSmokeArith(t *testing.T) {
	p := mkProg(t, isa.Superset,
		movImm(0, 10, 8),
		movImm(1, 3, 8),
		alu(code.SUB, 0, 1, 8),  // 7
		alu(code.IMUL, 0, 1, 8), // 21
		retR(0),
	)
	resI, resJ, evI, evJ, stI, stJ, errI, errJ := runBoth(t, p, nil, cpu.RunOptions{MaxInstrs: 1000})
	checkSame(t, resI, resJ, evI, evJ, stI, stJ, errI, errJ)
	if resJ.Ret != 21 {
		t.Fatalf("ret %d, want 21", resJ.Ret)
	}
}

func TestJITSmokeMemLoop(t *testing.T) {
	// Sum an array of 64 qwords via a backward branch, exercising the data
	// window, flags, and JCC templates.
	instrs := []code.Instr{
		movImm(8, int64(code.DataBase), 8), // base
		movImm(0, 0, 8),                    // sum
		movImm(1, 0, 8),                    // i
		movImm(2, 64, 8),                   // n
	}
	st := ci(code.ST, 8)
	st.Src1 = 1
	st.HasMem = true
	st.Mem = code.Mem{Base: 8, Index: 1, Scale: 8, Disp: 0}
	ld := ci(code.LD, 8)
	ld.Dst = 3
	ld.HasMem = true
	ld.Mem = code.Mem{Base: 8, Index: 1, Scale: 8, Disp: 0}
	cmp := ci(code.CMP, 8)
	cmp.Src1, cmp.Src2 = 1, 2
	jlt := ci(code.JCC, 0)
	jlt.CC, jlt.Target = code.CCLT, 4
	instrs = append(instrs,
		st,                     // 4: a[i] = i
		ld,                     // 5: r3 = a[i]
		alu(code.ADD, 0, 3, 8), // 6: sum += r3
		movImm(3, 1, 8),        // 7
		alu(code.ADD, 1, 3, 8), // 8: i++
		cmp,                    // 9
		jlt,                    // 10
		retR(0),
	)
	p := mkProg(t, isa.Superset, instrs...)
	resI, resJ, evI, evJ, stI, stJ, errI, errJ := runBoth(t, p, nil, cpu.RunOptions{MaxInstrs: 10000})
	checkSame(t, resI, resJ, evI, evJ, stI, stJ, errI, errJ)
	if want := uint64(64 * 63 / 2); resJ.Ret != want {
		t.Fatalf("ret %d, want %d", resJ.Ret, want)
	}
}

// TestJITDeclineLeavesInterpreterIntact runs on every platform: when the
// engine declines (unsupported platform stub, or any bailout), RunPredecoded
// must fall through to the interpreter with results unchanged.
func TestJITDeclineLeavesInterpreterIntact(t *testing.T) {
	eng := New(Config{Threshold: 1 << 30}) // never hot: always a bailout
	p := mkProg(t, isa.Superset,
		movImm(0, 5, 8),
		movImm(1, 4, 8),
		alu(code.IMUL, 0, 1, 8),
		retR(0),
	)
	st := cpu.NewState(mem.New())
	res, err := cpu.RunPredecoded(cpu.Predecode(p), st, cpu.RunOptions{MaxInstrs: 100, JIT: eng}, nil)
	if err != nil || res.Ret != 20 {
		t.Fatalf("res %+v err %v, want ret 20", res, err)
	}
	if s := eng.Stats(); s.Bailouts != 1 || s.Runs != 0 {
		t.Fatalf("expected one bailout and no native runs: %+v", s)
	}
}
