// Differential equivalence suite for the flattened hot path: the
// table-driven executor (RunPredecoded + stepTab), the predecoded micro-op
// templates, and the pooled struct-of-arrays profiler must be bit-identical
// to the frozen pre-refactor oracles (runLegacy's switch dispatch, expand(),
// and the map-based legacyProfiler) — over a deterministic fuzz corpus and
// the full feature-set x region matrix. Profiles are compared through the
// binary codec, which also proves the encoding roundtrips byte-identically.

package cpu

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"compisa/internal/code"
	"compisa/internal/compiler"
	"compisa/internal/isa"
	"compisa/internal/mem"
	"compisa/internal/workload"
)

// matrixBudget truncates each (feature set, region) run: the differential
// property holds at any prefix of the event stream, so a bounded budget
// keeps the 26x49 matrix fast while still exercising every region's code.
const matrixBudget = 15_000

// buildRegion compiles one region for one feature set, exactly as the
// evaluation pipeline does.
func buildRegion(t *testing.T, r workload.Region, fs isa.FeatureSet) (*code.Program, *mem.Memory) {
	t.Helper()
	f, m, err := r.Build(fs.Width)
	if err != nil {
		t.Fatalf("%s: build: %v", r.Name, err)
	}
	prog, err := compiler.Compile(f, fs, compiler.Options{Verify: compiler.VerifyOff})
	if err != nil {
		t.Fatalf("%s: compile: %v", r.Name, err)
	}
	prog.Name = r.Name
	return prog, m
}

// errString tolerates nil.
func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// profileBoth runs the legacy oracle and the fast path over two independent
// builds of the same program and returns both outcomes. Finish is called
// even after a budget abort: the profiles must agree at any truncation
// point, since both sides consumed the same event prefix.
func profileBoth(prog1 *code.Program, m1 *mem.Memory, prog2 *code.Program, m2 *mem.Memory, opts RunOptions) (pL, pF *Profile, resL, resF ExecResult, errL, errF error) {
	prL := newLegacyProfiler(prog1)
	resL, errL = runLegacy(prog1, NewState(m1), opts, prL.Consume)
	pL = prL.Finish()

	pd := Predecode(prog2)
	prF := newProfiler(pd, m2.Pages()*mem.PageSize/8)
	defer prF.release()
	resF, errF = RunPredecoded(pd, NewState(m2), opts, prF.Consume)
	pF = prF.Finish()
	return
}

// TestDifferentialProfileMatrix proves executor and profiler equivalence
// over every derived feature set crossed with every suite region: identical
// ExecResults, identical errors, and byte-identical profile encodings —
// which also exercises the pooled profiler's in-place reset across hundreds
// of reuses per goroutine.
func TestDifferentialProfileMatrix(t *testing.T) {
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
			opts := RunOptions{MaxInstrs: matrixBudget}
			for _, r := range regions {
				prog1, m1 := buildRegion(t, r, fs)
				prog2, m2 := buildRegion(t, r, fs)
				pL, pF, resL, resF, errL, errF := profileBoth(prog1, m1, prog2, m2, opts)
				if errString(errL) != errString(errF) {
					t.Fatalf("%s: error mismatch: legacy %v, fast %v", r.Name, errL, errF)
				}
				if resL != resF {
					t.Fatalf("%s: ExecResult mismatch:\nlegacy %+v\nfast   %+v", r.Name, resL, resF)
				}
				bL, err := pL.MarshalBinary()
				if err != nil {
					t.Fatalf("%s: encode legacy: %v", r.Name, err)
				}
				bF, err := pF.MarshalBinary()
				if err != nil {
					t.Fatalf("%s: encode fast: %v", r.Name, err)
				}
				if !bytes.Equal(bL, bF) {
					t.Fatalf("%s: profile encodings differ:\nlegacy %+v\nfast   %+v", r.Name, pL, pF)
				}
				// Decode/re-encode roundtrip is byte-identical.
				var back Profile
				if err := back.UnmarshalBinary(bF); err != nil {
					t.Fatalf("%s: decode: %v", r.Name, err)
				}
				b2, err := back.MarshalBinary()
				if err != nil {
					t.Fatalf("%s: re-encode: %v", r.Name, err)
				}
				if !bytes.Equal(bF, b2) {
					t.Fatalf("%s: codec roundtrip not byte-identical", r.Name)
				}
			}
		})
	}
}

// TestDifferentialL2SplitNotVacuous makes the differential suite cross the
// boundary between the two L2 options, which the profiler answers from one
// LRU stack (rank < 4 vs rank < 8). The suite regions cannot: their data
// footprints are at most 4 MB, the capacity of L2Cfg4M, so every suite
// profile has equal L2 misses for both options. This kernel cycles loads
// and stores over 5 lines that share one L2 set (a 1 MB stride), so every
// steady-state load has recency rank exactly 4: a miss for the 4-way
// option and a hit for the 8-way one. The legacy profiler's independent
// caches must agree byte for byte.
func TestDifferentialL2SplitNotVacuous(t *testing.T) {
	mk := func() *code.Program {
		const loop, lines = 5, 5
		ld := ci(code.LD, 8)
		ld.Dst = 3
		ld.HasMem = true
		ld.Mem = code.Mem{Base: 4, Index: 2, Scale: 1}
		add := alu(code.ADD, 5, 3, 8)
		st := ci(code.ST, 8)
		st.Src1 = 5
		st.HasMem = true
		st.Mem = code.Mem{Base: 4, Index: 2, Scale: 1}
		step := ci(code.ADD, 8)
		step.Dst, step.Src1 = 2, 2
		step.HasImm, step.Imm = true, 1<<20
		cmpWrap := ci(code.CMP, 8)
		cmpWrap.Src1, cmpWrap.Src2 = 2, 6
		skip := ci(code.JCC, 0)
		skip.CC = code.CCLT
		skip.Target = loop + 7
		inc := ci(code.ADD, 8)
		inc.Dst, inc.Src1 = 0, 0
		inc.HasImm, inc.Imm = true, 1
		cmp := ci(code.CMP, 8)
		cmp.Src1, cmp.Src2 = 0, 1
		back := ci(code.JCC, 0)
		back.CC = code.CCLT
		back.Target = loop
		return mkProg(t, isa.X8664,
			movImm(0, 0, 8), movImm(1, 2000, 8), movImm(2, 0, 8),
			movImm(4, int64(code.DataBase)+7*cacheLineBytes, 8),
			movImm(6, lines<<20, 8),
			ld, add, st, step, cmpWrap, skip, movImm(2, 0, 8),
			inc, cmp, back, retR(5))
	}
	pL, pF, resL, resF, errL, errF := profileBoth(mk(), mem.New(), mk(), mem.New(), RunOptions{MaxInstrs: 1 << 20})
	if errL != nil || errF != nil {
		t.Fatalf("run: legacy %v, fast %v", errL, errF)
	}
	if resL != resF {
		t.Fatalf("ExecResult mismatch:\nlegacy %+v\nfast   %+v", resL, resF)
	}
	bL, err := pL.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	bF, err := pF.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bL, bF) {
		t.Fatalf("profile encodings differ:\nlegacy %+v\nfast   %+v", pL.Mem, pF.Mem)
	}
	for i := 0; i < 2; i++ {
		for d := 0; d < 2; d++ {
			m4, m8 := pF.Mem[i][d][0].L2Misses, pF.Mem[i][d][1].L2Misses
			if m4 < 1000 || m8 >= m4/10 {
				t.Errorf("Mem[%d][%d]: L2 misses %d (4-way) vs %d (8-way); want the 8-way option to absorb the 5-line cycle", i, d, m4, m8)
			}
		}
	}
}

// TestDifferentialTimingSubset proves the timing walk is unchanged by the
// predecoded micro-op templates and the table-driven event stream: the
// oracle (legacyExpand decomposition fed by runLegacy) and the fast path
// (RunTimed) produce identical TimingResults, out-of-order and in-order.
func TestDifferentialTimingSubset(t *testing.T) {
	cfgs := []CoreConfig{
		baseCfg(),
		{
			OoO: false, Width: 2, Predictor: PredGShare,
			IntALU: 2, IntMul: 1, FPALU: 1, LSQ: 8,
			L1I: L1Cfg32k, L1D: L1Cfg32k, L2: L2Cfg4M,
		},
	}
	sets := append(isa.XIzedFixedSets(), isa.MicroX86Min)
	regions := workload.Regions()[:6]
	if testing.Short() {
		sets = sets[:2]
		regions = regions[:2]
	}
	opts := RunOptions{MaxInstrs: matrixBudget}
	for _, fs := range sets {
		for _, r := range regions {
			for ci, cfg := range cfgs {
				prog1, m1 := buildRegion(t, r, fs)
				prog2, m2 := buildRegion(t, r, fs)

				tl := NewTiming(prog1, cfg)
				tl.legacyExpand = true
				resL, errL := runLegacy(prog1, NewState(m1), opts, tl.Consume)
				trL := tl.Result()

				pd := Predecode(prog2)
				tf := newTimingPre(pd, cfg)
				resF, errF := RunPredecoded(pd, NewState(m2), opts, tf.Consume)
				trF := tf.Result()

				if errString(errL) != errString(errF) {
					t.Fatalf("%s/%s/cfg%d: error mismatch: %v vs %v", fs.ShortName(), r.Name, ci, errL, errF)
				}
				if resL != resF {
					t.Fatalf("%s/%s/cfg%d: ExecResult mismatch", fs.ShortName(), r.Name, ci)
				}
				if trL != trF {
					t.Fatalf("%s/%s/cfg%d: TimingResult mismatch:\nlegacy %+v\nfast   %+v",
						fs.ShortName(), r.Name, ci, trL, trF)
				}
			}
		}
	}
}

// fuzzProg assembles one pseudo-random but valid superset-ISA program:
// ALU/flag traffic (including the carry-consuming ADC/SBB and CC consumers
// SETCC/CMOVCC), loads/stores and memory-operand ALU against the data
// region, occasional predication, and forward conditional branches (so the
// program always terminates).
func fuzzProg(t *testing.T, rng *rand.Rand) *code.Program {
	t.Helper()
	n := 24 + rng.Intn(40)
	instrs := make([]code.Instr, 0, n+4)
	// r8 anchors the data region; r0..r7 are working registers.
	instrs = append(instrs, movImm(8, int64(code.DataBase), 8))
	for i := 0; i < 4; i++ {
		instrs = append(instrs, movImm(code.Reg(i), rng.Int63n(1<<32)-1<<31, 8))
	}
	reg := func() code.Reg { return code.Reg(rng.Intn(8)) }
	sz := func() uint8 {
		if rng.Intn(2) == 0 {
			return 4
		}
		return 8
	}
	ccs := []code.CC{code.CCEQ, code.CCNE, code.CCLT, code.CCLE, code.CCGT, code.CCGE, code.CCB, code.CCBE, code.CCA, code.CCAE}
	for len(instrs) < n {
		switch rng.Intn(12) {
		case 0, 1, 2: // two-operand ALU
			ops := []code.Op{code.ADD, code.SUB, code.AND, code.OR, code.XOR, code.IMUL, code.ADC, code.SBB}
			in := alu(ops[rng.Intn(len(ops))], reg(), reg(), sz())
			instrs = append(instrs, in)
		case 3: // immediate shift
			ops := []code.Op{code.SHL, code.SHR, code.SAR}
			in := ci(ops[rng.Intn(len(ops))], sz())
			r := reg()
			in.Dst, in.Src1 = r, r
			in.HasImm, in.Imm = true, int64(1+rng.Intn(31))
			instrs = append(instrs, in)
		case 4: // CMP or TEST to refresh flags
			op := code.CMP
			if rng.Intn(2) == 0 {
				op = code.TEST
			}
			in := ci(op, sz())
			in.Src1, in.Src2 = reg(), reg()
			instrs = append(instrs, in)
		case 5: // SETCC
			in := ci(code.SETCC, 4)
			in.Dst, in.CC = reg(), ccs[rng.Intn(len(ccs))]
			instrs = append(instrs, in)
		case 6: // CMOVCC
			in := ci(code.CMOVCC, 8)
			r := reg()
			in.Dst, in.Src1, in.Src2 = r, r, reg()
			in.CC = ccs[rng.Intn(len(ccs))]
			instrs = append(instrs, in)
		case 7: // load
			in := ci(code.LD, 8)
			in.Dst = reg()
			in.HasMem = true
			in.Mem = code.Mem{Base: 8, Index: code.NoReg, Scale: 1, Disp: int32(8 * rng.Intn(64))}
			instrs = append(instrs, in)
		case 8: // store
			in := ci(code.ST, 8)
			in.Src1 = reg()
			in.HasMem = true
			in.Mem = code.Mem{Base: 8, Index: code.NoReg, Scale: 1, Disp: int32(8 * rng.Intn(64))}
			if rng.Intn(4) == 0 { // occasionally predicated
				in.Pred, in.PredSense = reg(), rng.Intn(2) == 0
			}
			instrs = append(instrs, in)
		case 9: // memory-operand ALU (load+op micro-fusion path)
			in := ci(code.ADD, 4)
			r := reg()
			in.Dst, in.Src1 = r, r
			in.HasMem = true
			in.Mem = code.Mem{Base: 8, Index: code.NoReg, Scale: 1, Disp: int32(8 * rng.Intn(64))}
			instrs = append(instrs, in)
		case 10: // register MOV, sometimes predicated
			in := ci(code.MOV, 8)
			in.Dst, in.Src1 = reg(), reg()
			if rng.Intn(3) == 0 {
				in.Pred, in.PredSense = reg(), rng.Intn(2) == 0
			}
			instrs = append(instrs, in)
		case 11: // LEA
			in := ci(code.LEA, 8)
			in.Dst = reg()
			in.HasMem = true
			in.Mem = code.Mem{Base: 8, Index: reg(), Scale: uint8(1 << rng.Intn(3)), Disp: int32(rng.Intn(256))}
			instrs = append(instrs, in)
		}
	}
	// A couple of forward branches over the straight-line body, then RET.
	for i := 0; i < 2; i++ {
		at := 5 + rng.Intn(len(instrs)-6)
		target := at + 1 + rng.Intn(len(instrs)-at)
		jcc := ci(code.JCC, 0)
		jcc.CC = ccs[rng.Intn(len(ccs))]
		jcc.Target = int32(target)
		instrs = append(instrs[:at], append([]code.Instr{jcc}, instrs[at:]...)...)
		// The insert shifted everything at/after `at` down by one.
		for j := range instrs {
			if instrs[j].Op == code.JCC && instrs[j].Target > int32(at) {
				instrs[j].Target++
			}
		}
	}
	instrs = append(instrs, retR(0))
	return mkProg(t, isa.Superset, instrs...)
}

// TestDifferentialExecFuzz drives both executors over a deterministic fuzz
// corpus and demands identical event streams, architectural state, and
// results — the strongest executor-equivalence check, since every decoded
// field of every event must match.
func TestDifferentialExecFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(0x5eed))
	corpus := 150
	if testing.Short() {
		corpus = 25
	}
	for i := 0; i < corpus; i++ {
		p := fuzzProg(t, rng)
		opts := RunOptions{MaxInstrs: 10_000}
		if i%7 == 0 {
			// Exercise the budget-abort path differentially too.
			opts.MaxInstrs = 10
		}

		var evL []Event
		stL := NewState(mem.New())
		resL, errL := runLegacy(p, stL, opts, func(ev *Event) { evL = append(evL, *ev) })

		var evF []Event
		stF := NewState(mem.New())
		resF, errF := RunPredecoded(Predecode(p), stF, opts, func(ev *Event) { evF = append(evF, *ev) })

		if errString(errL) != errString(errF) {
			t.Fatalf("prog %d: error mismatch: %v vs %v", i, errL, errF)
		}
		if resL != resF {
			t.Fatalf("prog %d: ExecResult mismatch:\nlegacy %+v\nfast   %+v", i, resL, resF)
		}
		if len(evL) != len(evF) {
			t.Fatalf("prog %d: event count mismatch: %d vs %d", i, len(evL), len(evF))
		}
		for j := range evL {
			if evL[j] != evF[j] {
				t.Fatalf("prog %d: event %d mismatch:\nlegacy %+v\nfast   %+v", i, j, evL[j], evF[j])
			}
		}
		if stL.Int != stF.Int || stL.FP != stF.FP || stL.Flags != stF.Flags {
			t.Fatalf("prog %d: architectural state mismatch", i)
		}
	}
}

// TestProfileCodecFieldCount pins the Profile shape: adding or removing a
// field must be accompanied by a codec update (and a version bump if the
// layout changes), or this fails before a silent encoding skew can ship.
func TestProfileCodecFieldCount(t *testing.T) {
	if n := reflect.TypeOf(Profile{}).NumField(); n != 23 {
		t.Fatalf("Profile has %d fields, codec encodes 23: update profile_codec.go (and bump profileCodecVersion on layout changes), then this count", n)
	}
	if n := reflect.TypeOf(Profile{}).FieldByIndex([]int{22}).Type.NumField(); n != 10 {
		t.Fatalf("CompileStats has %d fields, codec encodes 10: update profile_codec.go, then this count", n)
	}
}

// TestProfileCodecErrors pins the decoder's rejection paths.
func TestProfileCodecErrors(t *testing.T) {
	var p Profile
	p.Name = "x"
	p.Uops = 7
	good, err := p.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var q Profile
	cases := map[string][]byte{
		"empty":     {},
		"bad magic": append([]byte("nope"), good[4:]...),
		"version":   append([]byte("cpf1\xff"), good[5:]...),
		"truncated": good[:len(good)-3],
		"trailing":  append(append([]byte{}, good...), 0),
	}
	for name, blob := range cases {
		if err := q.UnmarshalBinary(blob); err == nil {
			t.Errorf("%s: decode succeeded, want error", name)
		}
	}
	if err := q.UnmarshalBinary(good); err != nil {
		t.Fatalf("good blob failed: %v", err)
	}
	if q.Name != "x" || q.Uops != 7 {
		t.Fatalf("roundtrip lost fields: %+v", q)
	}
}
