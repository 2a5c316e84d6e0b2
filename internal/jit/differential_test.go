// Differential equivalence suite for the template JIT: executed behind the
// cpu.RunOptions.JIT seam, it must reproduce the interpreter bit for bit —
// event streams, architectural state, ExecResult counters, profile
// encodings, and error values — across the full feature-set x region
// matrix, both guest targets (x86 variable-length and alpha64
// fixed-length), and a deterministic fuzz corpus. Every deopt guard kind is
// exercised explicitly in deopt_test.go.

package jit

import (
	"bytes"
	"context"
	"math/rand"
	"testing"

	"compisa/internal/code"
	"compisa/internal/compiler"
	"compisa/internal/cpu"
	"compisa/internal/isa"
	"compisa/internal/mem"
	"compisa/internal/par"
	"compisa/internal/workload"
)

// matrixBudget truncates each (feature set, region) run, mirroring the cpu
// package's per-cell digests (cellBudget).
const matrixBudget = 15_000

// buildRegion compiles one region for one feature set and guest target,
// exactly as the evaluation pipeline does.
func buildRegion(t testing.TB, r workload.Region, fs isa.FeatureSet, target string) (*code.Program, *mem.Memory) {
	t.Helper()
	f, m, err := r.Build(fs.Width)
	if err != nil {
		t.Fatalf("%s: build: %v", r.Name, err)
	}
	prog, err := compiler.Compile(f, fs, compiler.Options{Verify: compiler.VerifyOff, Target: target})
	if err != nil {
		t.Fatalf("%s: compile: %v", r.Name, err)
	}
	prog.Name = r.Name
	return prog, m
}

// diffProfiles collects profiles through the interpreter and through the
// JIT over independent builds of the same region and demands byte-identical
// encodings, identical ExecResults, and identical errors.
func diffProfiles(t *testing.T, name string, eng *Engine, r workload.Region, fs isa.FeatureSet, target string) {
	t.Helper()
	prog1, m1 := buildRegion(t, r, fs, target)
	prog2, m2 := buildRegion(t, r, fs, target)

	opts := cpu.RunOptions{MaxInstrs: matrixBudget}
	pI, resI, errI := cpu.CollectProfileOpts(prog1, m1, opts)

	opts.JIT = eng
	pJ, resJ, errJ := cpu.CollectProfileOpts(prog2, m2, opts)

	if errString(errI) != errString(errJ) {
		t.Fatalf("%s: error mismatch:\ninterp %v\njit    %v", name, errI, errJ)
	}
	if resI != resJ {
		t.Fatalf("%s: ExecResult mismatch:\ninterp %+v\njit    %+v", name, resI, resJ)
	}
	if errI != nil {
		return // both aborted identically; no profiles to compare
	}
	bI, err := pI.MarshalBinary()
	if err != nil {
		t.Fatalf("%s: encode interp: %v", name, err)
	}
	bJ, err := pJ.MarshalBinary()
	if err != nil {
		t.Fatalf("%s: encode jit: %v", name, err)
	}
	if !bytes.Equal(bI, bJ) {
		t.Fatalf("%s: profile encodings differ:\ninterp %+v\njit    %+v", name, pI, pJ)
	}
}

// TestJITDifferentialProfileMatrix proves JIT/interpreter equivalence over
// every derived feature set crossed with every suite region.
func TestJITDifferentialProfileMatrix(t *testing.T) {
	if !Available() {
		t.Skip("jit unavailable on this platform")
	}
	sets := isa.Derive()
	regions := workload.Regions()
	if testing.Short() {
		sets = sets[:4]
		regions = regions[:8]
	}
	for _, fs := range sets {
		fs := fs
		t.Run(fs.ShortName(), func(t *testing.T) {
			t.Parallel()
			eng := New(Config{})
			for _, r := range regions {
				diffProfiles(t, r.Name, eng, r, fs, "")
			}
			if s := eng.Stats(); s.Runs == 0 {
				t.Fatalf("matrix never ran natively: %+v", s)
			}
		})
	}
}

// TestJITDifferentialAlpha64 runs the fixed-length alpha64 guest target
// through the same differential harness: encoded lengths and PCs differ
// from the x86 lowering, so this proves the templates take both from the
// predecode tables rather than assuming a target.
func TestJITDifferentialAlpha64(t *testing.T) {
	if !Available() {
		t.Skip("jit unavailable on this platform")
	}
	eng := New(Config{})
	regions := workload.Regions()
	if testing.Short() {
		regions = regions[:8]
	}
	for _, r := range regions {
		diffProfiles(t, r.Name, eng, r, isa.X86izedAlpha, "alpha64")
	}
	if s := eng.Stats(); s.Runs == 0 {
		t.Fatalf("alpha64 leg never ran natively: %+v", s)
	}
}

// fuzzProg assembles one pseudo-random but valid superset-ISA program with
// wider op coverage than the interpreter's own fuzz corpus: every ALU op at
// sizes 1/4/8, flag producers and consumers, predication on both senses,
// loads/stores of all sizes, memory-operand ALU, scalar and packed FP, the
// int/float converters, and forward conditional branches (so the program
// always terminates).
func fuzzProg(t testing.TB, rng *rand.Rand) *code.Program {
	t.Helper()
	n := 30 + rng.Intn(50)
	instrs := make([]code.Instr, 0, n+8)
	// r8 anchors the data region; r0..r7 are working registers.
	instrs = append(instrs, movImm(8, int64(code.DataBase), 8))
	for i := 0; i < 4; i++ {
		instrs = append(instrs, movImm(code.Reg(i), rng.Int63n(1<<32)-1<<31, 8))
	}
	// f0..f3 seeded from integer registers.
	for i := 0; i < 4; i++ {
		cv := ci(code.CVTIF, 8)
		cv.Dst, cv.Src1 = code.Reg(i), code.Reg(i)
		instrs = append(instrs, cv)
	}
	reg := func() code.Reg { return code.Reg(rng.Intn(8)) }
	freg := func() code.Reg { return code.Reg(rng.Intn(4)) }
	sz := func() uint8 {
		switch rng.Intn(3) {
		case 0:
			return 1
		case 1:
			return 4
		}
		return 8
	}
	fsz := func() uint8 {
		if rng.Intn(2) == 0 {
			return 4
		}
		return 8
	}
	memOp := func() code.Mem {
		return code.Mem{Base: 8, Index: code.NoReg, Scale: 1, Disp: int32(8 * rng.Intn(64))}
	}
	ccs := []code.CC{code.CCEQ, code.CCNE, code.CCLT, code.CCLE, code.CCGT, code.CCGE, code.CCB, code.CCBE, code.CCA, code.CCAE}
	pred := func(in *code.Instr) {
		if rng.Intn(4) == 0 {
			in.Pred, in.PredSense = reg(), rng.Intn(2) == 0
		}
	}
	for len(instrs) < n {
		switch rng.Intn(16) {
		case 0, 1, 2: // two-operand ALU at any width
			ops := []code.Op{code.ADD, code.SUB, code.AND, code.OR, code.XOR, code.IMUL, code.ADC, code.SBB}
			in := alu(ops[rng.Intn(len(ops))], reg(), reg(), sz())
			pred(&in)
			instrs = append(instrs, in)
		case 3: // immediate ALU
			ops := []code.Op{code.ADD, code.SUB, code.AND, code.OR, code.XOR}
			in := ci(ops[rng.Intn(len(ops))], sz())
			r := reg()
			in.Dst, in.Src1 = r, r
			in.HasImm, in.Imm = true, rng.Int63n(1<<16)-1<<15
			instrs = append(instrs, in)
		case 4: // immediate shift, including byte-width SAR
			ops := []code.Op{code.SHL, code.SHR, code.SAR}
			s := sz()
			in := ci(ops[rng.Intn(len(ops))], s)
			r := reg()
			in.Dst, in.Src1 = r, r
			lim := 31
			if s == 8 {
				lim = 63
			}
			in.HasImm, in.Imm = true, int64(1+rng.Intn(lim))
			instrs = append(instrs, in)
		case 5: // CMP or TEST to refresh flags
			op := code.CMP
			if rng.Intn(2) == 0 {
				op = code.TEST
			}
			in := ci(op, sz())
			in.Src1, in.Src2 = reg(), reg()
			instrs = append(instrs, in)
		case 6: // SETCC / CMOVCC
			if rng.Intn(2) == 0 {
				in := ci(code.SETCC, 4)
				in.Dst, in.CC = reg(), ccs[rng.Intn(len(ccs))]
				instrs = append(instrs, in)
			} else {
				in := ci(code.CMOVCC, 8)
				in.Dst, in.Src1 = reg(), reg()
				in.CC = ccs[rng.Intn(len(ccs))]
				if rng.Intn(3) == 0 {
					in.HasMem, in.Mem = true, memOp()
				}
				instrs = append(instrs, in)
			}
		case 7: // load of any size
			in := ci(code.LD, []uint8{1, 2, 4, 8}[rng.Intn(4)])
			in.Dst = reg()
			in.HasMem, in.Mem = true, memOp()
			pred(&in)
			instrs = append(instrs, in)
		case 8: // store of any size
			in := ci(code.ST, []uint8{1, 2, 4, 8}[rng.Intn(4)])
			in.Src1 = reg()
			in.HasMem, in.Mem = true, memOp()
			pred(&in)
			instrs = append(instrs, in)
		case 9: // memory-operand ALU
			ops := []code.Op{code.ADD, code.SUB, code.AND, code.XOR, code.IMUL}
			in := ci(ops[rng.Intn(len(ops))], sz())
			r := reg()
			in.Dst, in.Src1 = r, r
			in.HasMem, in.Mem = true, memOp()
			instrs = append(instrs, in)
		case 10: // MOV / MOVSX / LEA
			switch rng.Intn(3) {
			case 0:
				in := ci(code.MOV, sz())
				in.Dst, in.Src1 = reg(), reg()
				pred(&in)
				instrs = append(instrs, in)
			case 1:
				in := ci(code.MOVSX, 8)
				in.Dst, in.Src1 = reg(), reg()
				instrs = append(instrs, in)
			default:
				in := ci(code.LEA, 8)
				in.Dst = reg()
				in.HasMem = true
				in.Mem = code.Mem{Base: 8, Index: reg(), Scale: uint8(1 << rng.Intn(3)), Disp: int32(rng.Intn(256))}
				instrs = append(instrs, in)
			}
		case 11: // scalar FP arithmetic
			ops := []code.Op{code.FADD, code.FSUB, code.FMUL, code.FDIV}
			in := ci(ops[rng.Intn(len(ops))], fsz())
			in.Dst, in.Src1, in.Src2 = freg(), freg(), freg()
			instrs = append(instrs, in)
		case 12: // FP compare + FMOV
			in := ci(code.FCMP, fsz())
			in.Src1, in.Src2 = freg(), freg()
			instrs = append(instrs, in)
			mv := ci(code.FMOV, 8)
			mv.Dst, mv.Src1 = freg(), freg()
			instrs = append(instrs, mv)
		case 13: // FP memory traffic
			if rng.Intn(2) == 0 {
				in := ci(code.FLD, fsz())
				in.Dst = freg()
				in.HasMem, in.Mem = true, memOp()
				instrs = append(instrs, in)
			} else {
				in := ci(code.FST, fsz())
				in.Src1 = freg()
				in.HasMem, in.Mem = true, memOp()
				instrs = append(instrs, in)
			}
		case 14: // converters
			if rng.Intn(2) == 0 {
				in := ci(code.CVTIF, fsz())
				in.Dst, in.Src1 = freg(), reg()
				instrs = append(instrs, in)
			} else {
				in := ci(code.CVTFI, fsz())
				in.Dst, in.Src1 = reg(), freg()
				instrs = append(instrs, in)
			}
		case 15: // packed vector ops
			ops := []code.Op{code.VADDF, code.VSUBF, code.VMULF, code.VADDI, code.VSUBI, code.VMULI, code.VSPLAT, code.VRSUM}
			in := ci(ops[rng.Intn(len(ops))], 16)
			in.Dst, in.Src1, in.Src2 = freg(), freg(), freg()
			instrs = append(instrs, in)
			if rng.Intn(3) == 0 {
				vl := ci(code.VLD, 16)
				vl.Dst = freg()
				vl.HasMem, vl.Mem = true, memOp()
				vs := ci(code.VST, 16)
				vs.Src1 = freg()
				vs.HasMem, vs.Mem = true, memOp()
				instrs = append(instrs, vl, vs)
			}
		}
	}
	// A couple of forward branches over the straight-line body, then RET.
	for i := 0; i < 2; i++ {
		at := 9 + rng.Intn(len(instrs)-10)
		target := at + 1 + rng.Intn(len(instrs)-at)
		jcc := ci(code.JCC, 0)
		jcc.CC = ccs[rng.Intn(len(ccs))]
		jcc.Target = int32(target)
		instrs = append(instrs[:at], append([]code.Instr{jcc}, instrs[at:]...)...)
		for j := range instrs {
			if instrs[j].Op == code.JCC && instrs[j].Target > int32(at) {
				instrs[j].Target++
			}
		}
	}
	instrs = append(instrs, retR(0))
	return mkProg(t, isa.Superset, instrs...)
}

// diffOne runs one program through both executors and demands identical
// event streams, results, errors, and architectural state.
func diffOne(t testing.TB, eng *Engine, p *code.Program, opts cpu.RunOptions) {
	t.Helper()
	var evI []cpu.Event
	stI := cpu.NewState(mem.New())
	resI, errI := cpu.RunPredecoded(cpu.Predecode(p), stI, opts, func(ev *cpu.Event) { evI = append(evI, *ev) })

	jopts := opts
	jopts.JIT = eng
	var evJ []cpu.Event
	stJ := cpu.NewState(mem.New())
	resJ, errJ := cpu.RunPredecoded(cpu.Predecode(p), stJ, jopts, func(ev *cpu.Event) { evJ = append(evJ, *ev) })

	checkSame(t, resI, resJ, evI, evJ, stI, stJ, errI, errJ)
}

// TestJITDifferentialExecFuzz drives both executors over a deterministic
// fuzz corpus and demands identical observables, including the budget-abort
// path.
func TestJITDifferentialExecFuzz(t *testing.T) {
	if !Available() {
		t.Skip("jit unavailable on this platform")
	}
	rng := rand.New(rand.NewSource(0xc0de))
	eng := New(Config{})
	corpus := 200
	if testing.Short() {
		corpus = 30
	}
	for i := 0; i < corpus; i++ {
		p := fuzzProg(t, rng)
		opts := cpu.RunOptions{MaxInstrs: 10_000}
		if i%7 == 0 {
			opts.MaxInstrs = 10 // budget-abort path, differentially
		}
		diffOne(t, eng, p, opts)
	}
	if s := eng.Stats(); s.Runs == 0 {
		t.Fatalf("fuzz corpus never ran natively: %+v", s)
	}
}

// FuzzJITDifferential is the native fuzz target (run at length in the
// nightly workflow): the seed picks a deterministic program and budget, and
// interpreter and JIT must agree on every observable.
func FuzzJITDifferential(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed, int64(10_000))
	}
	f.Add(int64(99), int64(10)) // budget abort
	if !Available() {
		f.Skip("jit unavailable on this platform")
	}
	eng := New(Config{})
	f.Fuzz(func(t *testing.T, seed, budget int64) {
		if budget <= 0 || budget > 1_000_000 {
			budget = 10_000
		}
		rng := rand.New(rand.NewSource(seed))
		p := fuzzProg(t, rng)
		diffOne(t, eng, p, cpu.RunOptions{MaxInstrs: budget})
	})
}

// TestJITConcurrentWorkers shares one engine (and therefore one code cache)
// across par.Map workers, the way the evaluation pipeline does: under
// -race this proves the cache's hit/insert/evict paths and the per-run
// window aliasing are worker-safe.
func TestJITConcurrentWorkers(t *testing.T) {
	if !Available() {
		t.Skip("jit unavailable on this platform")
	}
	eng := New(Config{CacheEntries: 4}) // force eviction churn under load
	rng := rand.New(rand.NewSource(7))
	progs := make([]*code.Program, 12)
	for i := range progs {
		progs[i] = fuzzProg(t, rng)
	}
	const rounds = 48
	err := par.ForEach(context.Background(), rounds, 8, func(i int) error {
		p := progs[i%len(progs)]
		opts := cpu.RunOptions{MaxInstrs: 10_000, JIT: eng}
		st := cpu.NewState(mem.New())
		_, err := cpu.RunPredecoded(cpu.Predecode(p), st, opts, nil)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	s := eng.Stats()
	if s.Runs == 0 {
		t.Fatalf("no native runs: %+v", s)
	}
	if s.Evictions == 0 {
		t.Fatalf("cache eviction never exercised: %+v", s)
	}
	// Re-run one evicted program: correctness must survive eviction.
	diffOne(t, eng, progs[0], cpu.RunOptions{MaxInstrs: 10_000})
}
