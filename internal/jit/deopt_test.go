// Table test over every deopt guard kind: each case drives a program that
// trips exactly one guard and asserts (a) the interpreter and the JIT agree
// on every observable — proving the deopt handed the instruction to the
// interpreter and resumed with identical architectural state — and (b) the
// engine's counters attribute the exit to the right guard.

package jit

import (
	"errors"
	"testing"

	"compisa/internal/code"
	"compisa/internal/cpu"
	"compisa/internal/encoding"
	"compisa/internal/isa"
	"compisa/internal/mem"
)

func TestJITDeoptGuards(t *testing.T) {
	if !Available() {
		t.Skip("jit unavailable on this platform")
	}

	// loopProg counts r0 down from n with a backward branch — enough
	// dynamic instructions to cross chunk, budget, and poll boundaries.
	loopProg := func(t *testing.T, n int64, extra ...code.Instr) *code.Program {
		dec := ci(code.SUB, 8)
		dec.Dst, dec.Src1 = 0, 0
		dec.HasImm, dec.Imm = true, 1
		jne := ci(code.JCC, 0)
		jne.CC, jne.Target = code.CCNE, 1
		instrs := append([]code.Instr{movImm(0, n, 8)}, extra...)
		jne.Target = int32(1 + len(extra))
		instrs = append(instrs, dec, jne, retR(0))
		return mkProg(t, isa.Superset, instrs...)
	}

	// opts is a constructor so cases with stateful Interrupt closures get a
	// fresh one per executor side.
	cases := []struct {
		name  string
		prog  func(t *testing.T) *code.Program
		opts  func() cpu.RunOptions
		check func(t *testing.T, before, after Snapshot, errJ error)
	}{
		{
			// code.SzMask(2) quirk: 16-bit ALU has no template, so every
			// iteration deopts through the unsupported-opcode guard and
			// resumes natively.
			name: "unsupported operand shape",
			prog: func(t *testing.T) *code.Program {
				w := ci(code.ADD, 2)
				w.Dst, w.Src1, w.Src2 = 1, 1, 0
				return loopProg(t, 50, w)
			},
			opts: func() cpu.RunOptions { return cpu.RunOptions{MaxInstrs: 10_000} },
			check: func(t *testing.T, before, after Snapshot, errJ error) {
				if errJ != nil {
					t.Fatalf("unexpected error: %v", errJ)
				}
				if after.DeoptUnsupported <= before.DeoptUnsupported {
					t.Fatalf("unsupported-opcode guard not attributed: %+v", after)
				}
			},
		},
		{
			// A corrupted opcode byte (the eval pipeline's fault-injection
			// KindCorrupt) has no interpreter handler either: the deopt
			// reproduces ErrUnimplementedOp identically.
			name: "unsupported opcode (corrupt)",
			prog: func(t *testing.T) *code.Program {
				p := loopProg(t, 5)
				p.Instrs[1].Op = code.Op(0xEF)
				// Re-layout after mutation, as the fault injector does.
				if err := encoding.Layout(p, code.CodeBase); err != nil {
					t.Fatal(err)
				}
				return p
			},
			opts: func() cpu.RunOptions { return cpu.RunOptions{MaxInstrs: 10_000} },
			check: func(t *testing.T, before, after Snapshot, errJ error) {
				if !errors.Is(errJ, cpu.ErrUnimplementedOp) {
					t.Fatalf("got %v, want ErrUnimplementedOp", errJ)
				}
				if after.DeoptUnsupported <= before.DeoptUnsupported {
					t.Fatalf("corrupt opcode not attributed to the unsupported guard: %+v", after)
				}
			},
		},
		{
			// Predicated-off unsupported instruction: the static deopt
			// fires before the predication gate, so StepOne must apply the
			// gate — a pred-off unimplemented op does NOT error.
			name: "unsupported under predication",
			prog: func(t *testing.T) *code.Program {
				w := ci(code.ADD, 2)
				w.Dst, w.Src1, w.Src2 = 1, 1, 0
				w.Pred, w.PredSense = 2, true // r2 == 0 -> predicated off
				return loopProg(t, 20, w)
			},
			opts: func() cpu.RunOptions { return cpu.RunOptions{MaxInstrs: 10_000} },
			check: func(t *testing.T, before, after Snapshot, errJ error) {
				if errJ != nil {
					t.Fatalf("unexpected error: %v", errJ)
				}
				if after.DeoptUnsupported <= before.DeoptUnsupported {
					t.Fatalf("predicated unsupported op not deopted: %+v", after)
				}
			},
		},
		{
			// Budget expiry across many native chunks (the watchdog that
			// backs the eval pipeline's KindRunaway fault): the error and
			// the retired-instruction count must match the interpreter.
			name: "budget expiry",
			prog: func(t *testing.T) *code.Program { return loopProg(t, 1_000_000) },
			opts: func() cpu.RunOptions { return cpu.RunOptions{MaxInstrs: 3*chunkCap + 17} },
			check: func(t *testing.T, before, after Snapshot, errJ error) {
				if !errors.Is(errJ, cpu.ErrInstrBudget) {
					t.Fatalf("got %v, want ErrInstrBudget", errJ)
				}
			},
		},
		{
			// Interrupt polling (fault-injection / cancellation hook):
			// chunks must stop exactly at the poll stride so the abort
			// fires after the same retired prefix as the interpreter.
			name: "fault injection interrupt",
			prog: func(t *testing.T) *code.Program { return loopProg(t, 1_000_000) },
			opts: func() cpu.RunOptions {
				polls := 0
				return cpu.RunOptions{
					MaxInstrs:      10_000_000,
					InterruptEvery: 100,
					Interrupt: func() error {
						polls++
						if polls >= 5 {
							return errors.New("injected fault")
						}
						return nil
					},
				}
			},
			check: func(t *testing.T, before, after Snapshot, errJ error) {
				if !errors.Is(errJ, cpu.ErrInterrupted) {
					t.Fatalf("got %v, want ErrInterrupted", errJ)
				}
			},
		},
		{
			// Memory-window violation: an access far outside every aliased
			// window deopts; the interpreter serves it from the same sparse
			// image, so values and events stay identical.
			name: "memory window",
			prog: func(t *testing.T) *code.Program {
				st := ci(code.ST, 8)
				st.Src1 = 0
				st.HasMem = true
				st.Mem = code.Mem{Base: 9, Index: code.NoReg, Scale: 1, Disp: 0}
				ld := ci(code.LD, 8)
				ld.Dst = 1
				ld.HasMem = true
				ld.Mem = code.Mem{Base: 9, Index: code.NoReg, Scale: 1, Disp: 0}
				add := alu(code.ADD, 1, 1, 8)
				return loopProg(t, 30, movImm(9, 0x0200_0000, 8), st, ld, add)
			},
			opts: func() cpu.RunOptions { return cpu.RunOptions{MaxInstrs: 10_000} },
			check: func(t *testing.T, before, after Snapshot, errJ error) {
				if errJ != nil {
					t.Fatalf("unexpected error: %v", errJ)
				}
				if after.DeoptMemWindow <= before.DeoptMemWindow {
					t.Fatalf("memory-window guard not attributed: %+v", after)
				}
			},
		},
		{
			// Out-of-range branch target: native code hands the bad pc back
			// to the driver, which reports the interpreter's exact error.
			name: "pc out of range",
			prog: func(t *testing.T) *code.Program {
				cmp := ci(code.CMP, 8)
				cmp.Src1, cmp.Src2 = 0, 0 // sets ZF
				j := ci(code.JCC, 0)
				j.CC, j.Target = code.CCEQ, 3
				p := mkProg(t, isa.Superset, movImm(0, 0, 8), cmp, j, retR(0))
				// Corrupt the target after layout (Layout rejects it).
				p.Instrs[2].Target = 99
				return p
			},
			opts: func() cpu.RunOptions { return cpu.RunOptions{MaxInstrs: 10_000} },
			check: func(t *testing.T, before, after Snapshot, errJ error) {
				if !errors.Is(errJ, cpu.ErrPCOutOfRange) {
					t.Fatalf("got %v, want ErrPCOutOfRange", errJ)
				}
			},
		},
	}

	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			eng := New(Config{})
			before := eng.Stats()
			p := tc.prog(t)

			var evI []cpu.Event
			stI := cpu.NewState(mem.New())
			resI, errI := cpu.RunPredecoded(cpu.Predecode(p), stI, tc.opts(), func(ev *cpu.Event) { evI = append(evI, *ev) })

			jopts := tc.opts()
			jopts.JIT = eng
			var evJ []cpu.Event
			stJ := cpu.NewState(mem.New())
			resJ, errJ := cpu.RunPredecoded(cpu.Predecode(p), stJ, jopts, func(ev *cpu.Event) { evJ = append(evJ, *ev) })

			checkSame(t, resI, resJ, evI, evJ, stI, stJ, errI, errJ)
			after := eng.Stats()
			if after.Runs == 0 {
				t.Fatalf("jit declined the run: %+v", after)
			}
			tc.check(t, before, after, errJ)
		})
	}
}

// The interrupt case above runs the interpreter with one Interrupt closure
// and the JIT with the same closure continuing to count — so it needs its
// own differential pass with fresh closures per side.
func TestJITInterruptPrefixIdentical(t *testing.T) {
	if !Available() {
		t.Skip("jit unavailable on this platform")
	}
	mk := func() cpu.RunOptions {
		polls := 0
		return cpu.RunOptions{
			MaxInstrs:      10_000_000,
			InterruptEvery: 100,
			Interrupt: func() error {
				polls++
				if polls >= 5 {
					return errors.New("injected fault")
				}
				return nil
			},
		}
	}
	dec := ci(code.SUB, 8)
	dec.Dst, dec.Src1, dec.HasImm, dec.Imm = 0, 0, true, 1
	jne := ci(code.JCC, 0)
	jne.CC, jne.Target = code.CCNE, 1
	p := mkProg(t, isa.Superset, movImm(0, 1_000_000, 8), dec, jne, retR(0))

	var evI []cpu.Event
	stI := cpu.NewState(mem.New())
	resI, errI := cpu.RunPredecoded(cpu.Predecode(p), stI, mk(), func(ev *cpu.Event) { evI = append(evI, *ev) })

	eng := New(Config{})
	jopts := mk()
	jopts.JIT = eng
	var evJ []cpu.Event
	stJ := cpu.NewState(mem.New())
	resJ, errJ := cpu.RunPredecoded(cpu.Predecode(p), stJ, jopts, func(ev *cpu.Event) { evJ = append(evJ, *ev) })

	checkSame(t, resI, resJ, evI, evJ, stI, stJ, errI, errJ)
	if !errors.Is(errJ, cpu.ErrInterrupted) {
		t.Fatalf("got %v, want ErrInterrupted", errJ)
	}
}

// TestJITSelfModifyRepredecode mutates a program after a native run and
// re-predecodes, as the fault injector and re-layout paths do: the
// content-hashed cache key must miss, forcing a fresh compile, and both
// versions must execute correctly.
func TestJITSelfModifyRepredecode(t *testing.T) {
	if !Available() {
		t.Skip("jit unavailable on this platform")
	}
	eng := New(Config{})
	p := mkProg(t, isa.Superset,
		movImm(0, 40, 8),
		movImm(1, 2, 8),
		alu(code.ADD, 0, 1, 8),
		retR(0),
	)
	run := func(want uint64) {
		t.Helper()
		st := cpu.NewState(mem.New())
		res, err := cpu.RunPredecoded(cpu.Predecode(p), st, cpu.RunOptions{MaxInstrs: 1000, JIT: eng}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Ret != want {
			t.Fatalf("ret %d, want %d", res.Ret, want)
		}
	}
	run(42)
	s1 := eng.Stats()
	if s1.Regions != 1 {
		t.Fatalf("regions %d, want 1", s1.Regions)
	}

	// Self-modify: change the immediate, re-layout, re-predecode. Stale
	// native code would still return 42.
	p.Instrs[1].Imm = 60
	if err := encoding.Layout(p, code.CodeBase); err != nil {
		t.Fatal(err)
	}
	run(100)
	s2 := eng.Stats()
	if s2.Regions != 2 {
		t.Fatalf("mutated program reused stale code: regions %d, want 2 (%+v)", s2.Regions, s2)
	}

	// The original content hashes back to the first module: cache hit.
	p.Instrs[1].Imm = 2
	if err := encoding.Layout(p, code.CodeBase); err != nil {
		t.Fatal(err)
	}
	run(42)
	s3 := eng.Stats()
	if s3.CacheHits <= s2.CacheHits {
		t.Fatalf("expected a cache hit on the reverted program: %+v", s3)
	}
}

// TestJITCacheEvictionLRU pins the eviction policy: with CacheEntries=2,
// compiling a third program evicts the least-recently-used module, and a
// later run of the evicted program recompiles and still agrees with the
// interpreter.
func TestJITCacheEvictionLRU(t *testing.T) {
	if !Available() {
		t.Skip("jit unavailable on this platform")
	}
	eng := New(Config{CacheEntries: 2})
	mk := func(k int64) *code.Program {
		return mkProg(t, isa.Superset,
			movImm(0, k, 8),
			movImm(1, 3, 8),
			alu(code.IMUL, 0, 1, 8),
			retR(0),
		)
	}
	progs := []*code.Program{mk(10), mk(20), mk(30)}
	for _, p := range progs {
		diffOne(t, eng, p, cpu.RunOptions{MaxInstrs: 100})
	}
	s := eng.Stats()
	if s.Regions != 3 || s.Evictions != 1 {
		t.Fatalf("regions %d evictions %d, want 3 and 1 (%+v)", s.Regions, s.Evictions, s)
	}
	// progs[0] was the LRU victim: running it again recompiles.
	diffOne(t, eng, progs[0], cpu.RunOptions{MaxInstrs: 100})
	s = eng.Stats()
	if s.Regions != 4 || s.Evictions != 2 {
		t.Fatalf("evicted program not recompiled: %+v", s)
	}
}

// TestJITHotnessThreshold pins the cold-program bailout: below the
// threshold the engine declines (the interpreter runs, results unchanged),
// at the threshold it compiles.
func TestJITHotnessThreshold(t *testing.T) {
	if !Available() {
		t.Skip("jit unavailable on this platform")
	}
	eng := New(Config{Threshold: 3})
	p := mkProg(t, isa.Superset,
		movImm(0, 7, 8),
		retR(0),
	)
	for i := 1; i <= 4; i++ {
		st := cpu.NewState(mem.New())
		res, err := cpu.RunPredecoded(cpu.Predecode(p), st, cpu.RunOptions{MaxInstrs: 100, JIT: eng}, nil)
		if err != nil || res.Ret != 7 {
			t.Fatalf("run %d: res %+v err %v", i, res, err)
		}
	}
	s := eng.Stats()
	if s.Bailouts != 2 {
		t.Fatalf("bailouts %d, want 2 (below threshold twice)", s.Bailouts)
	}
	if s.Regions != 1 || s.Runs != 2 {
		t.Fatalf("regions %d runs %d, want 1 and 2 (%+v)", s.Regions, s.Runs, s)
	}
}
