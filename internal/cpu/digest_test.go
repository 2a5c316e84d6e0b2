// Golden digests pin the executor, the profiler and the timing walk entry
// by entry: every (target, feature set, region) cell of the sweep, a kernel
// that splits the two L2 options, a seeded exec corpus, and a timing subset.
// Each test recomputes its table and compares it with a committed file under
// testdata/. A mismatch names every moved entry and writes the recomputed
// table to a temporary file whose path the failure logs; review that file
// and copy it over the fixture to record an intentional change.

package cpu

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"compisa/internal/code"
	"compisa/internal/compiler"
	"compisa/internal/golden"
	"compisa/internal/isa"
	"compisa/internal/mem"
	"compisa/internal/workload"
)

// cellBudget truncates each cell's run: the digests pin a prefix of the
// event stream, and a bounded budget keeps the full sweep cheap while still
// exercising every region's code.
const cellBudget = 15_000

// buildRegion compiles one region for one feature set and target, exactly
// as the evaluation pipeline does.
func buildRegion(t *testing.T, r workload.Region, fs isa.FeatureSet, tgt *isa.Target) (*code.Program, *mem.Memory) {
	t.Helper()
	f, m, err := r.Build(fs.Width)
	if err != nil {
		t.Fatalf("%s: build: %v", r.Name, err)
	}
	prog, err := compiler.Compile(f, fs, compiler.Options{Verify: compiler.VerifyOff, Target: tgt.ProgTarget()})
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

// hashEvent folds every field of ev into h.
func hashEvent(h hash.Hash64, ev *Event) {
	var b [20]byte
	binary.LittleEndian.PutUint32(b[0:], uint32(ev.Idx))
	binary.LittleEndian.PutUint32(b[4:], ev.PC)
	binary.LittleEndian.PutUint64(b[8:], ev.MemAddr)
	b[16], b[17], b[18] = ev.Len, ev.Uops, ev.MemSz
	for i, f := range []bool{ev.Taken, ev.IsLoad, ev.IsStore, ev.PredOff} {
		if f {
			b[19] |= 1 << i
		}
	}
	h.Write(b[:])
}

// profileRun executes a predecoded program under the pooled profiler,
// through the batch sink and buffer CollectProfileOpts uses, and returns the
// run's outcome, its event-stream hash, and the encoded profile. Finish runs
// even after a budget abort: the profile of the consumed prefix is pinned
// too.
func profileRun(t *testing.T, pd *Predecoded, m *mem.Memory, opts RunOptions) (res ExecResult, evHash uint64, prof *Profile, cpf []byte, err error) {
	t.Helper()
	pr := newProfiler(pd, m.Pages()*mem.PageSize/8)
	defer pr.release()
	h := fnv.New64a()
	res, err = pr.run(NewState(m), opts, func(evs []Event) {
		for i := range evs {
			hashEvent(h, &evs[i])
		}
		pr.consumeBatch(evs)
	})
	prof = pr.Finish()
	cpf, merr := prof.MarshalBinary()
	if merr != nil {
		t.Fatalf("%s: encode: %v", pd.P.Name, merr)
	}
	var back Profile
	if derr := back.UnmarshalBinary(cpf); derr != nil {
		t.Fatalf("%s: decode: %v", pd.P.Name, derr)
	}
	if again, _ := back.MarshalBinary(); string(again) != string(cpf) {
		t.Fatalf("%s: codec roundtrip not byte-identical", pd.P.Name)
	}
	return res, h.Sum64(), prof, cpf, err
}

// profileDigest renders a profiled run as fixture values: a truncated
// SHA-256 of the cpf1 bytes, the event-stream hash, the ExecResult and the
// error text.
func profileDigest(cpf []byte, evHash uint64, res ExecResult, err error) string {
	sum := sha256.Sum256(cpf)
	return fmt.Sprintf("cpf=%x ev=%016x %+v err=%q", sum[:8], evHash, res, errString(err))
}

// TestCellDigests pins every cell of the sweep: each registered target with
// each derived feature set it can encode, crossed with every suite region.
// A cell's line holds the profile digest of its first cellBudget
// instructions. The fixture must hold exactly this cross product, so
// dropping a target, feature set or region fails here rather than silently
// pinning fewer cells.
func TestCellDigests(t *testing.T) {
	if n := reflect.TypeOf(Event{}).NumField(); n != 10 {
		t.Fatalf("Event has %d fields, hashEvent folds 10: update hashEvent, then this count", n)
	}
	sets := isa.Derive()
	regions := workload.Regions()
	if testing.Short() {
		sets = sets[:4]
		regions = regions[:8]
	}
	targets := isa.Targets()
	lines := make([][]string, len(targets)*len(sets))
	for ti, tgt := range targets {
		t.Run(tgt.Name, func(t *testing.T) {
			for si, fs := range sets {
				if tgt.SupportsFS(fs) != nil {
					continue
				}
				out := &lines[ti*len(sets)+si]
				t.Run(fs.ShortName(), func(t *testing.T) {
					t.Parallel()
					for _, r := range regions {
						prog, m := buildRegion(t, r, fs, tgt)
						res, evHash, _, cpf, err := profileRun(t, Predecode(prog), m, RunOptions{MaxInstrs: cellBudget})
						key := tgt.Name + " " + fs.ShortName() + " " + r.Name
						*out = append(*out, key+"\t"+profileDigest(cpf, evHash, res, err))
					}
				})
			}
		})
	}
	if !t.Failed() {
		golden.Check(t, "cells.golden", slices.Concat(lines...), testing.Short())
	}
}

// fullRunBudget is the watchdog budget the sweep runs regions under
// (eval.MaxRegionInstrs).
const fullRunBudget = 40_000_000

// TestProfileFullRunDigest pins whole-region profiles, each region run to its
// RET under the sweep's budget: six regions of different character (pointer
// chasing, register pressure, irregular branches, vector code) on the
// smallest microx86 set, x86-64 and the superset. cells.golden covers every
// cell but stops at cellBudget instructions; this table covers everything
// the profiler computes over a complete run, the same cpf1 bytes the sweep
// scores, so it pins the profiler model itself.
func TestProfileFullRunDigest(t *testing.T) {
	sets := []isa.FeatureSet{isa.MicroX86Min, isa.X8664, isa.Superset}
	names := []string{"astar.3", "bzip2.3", "gobmk.0", "hmmer.0", "lbm.0", "mcf.0"}
	var lines []string
	for _, fs := range sets {
		for _, name := range names {
			r, ok := workload.RegionByName(name)
			if !ok {
				t.Fatalf("no region %s", name)
			}
			prog, m := buildRegion(t, r, fs, &isa.X86Target)
			res, evHash, _, cpf, err := profileRun(t, Predecode(prog), m, RunOptions{MaxInstrs: fullRunBudget})
			if err != nil {
				t.Fatalf("%s %s: %v", fs.ShortName(), name, err)
			}
			lines = append(lines, fs.ShortName()+" "+name+"\t"+profileDigest(cpf, evHash, res, err))
		}
	}
	golden.Check(t, "profiles.golden", lines, false)
}

// l2SplitKernel crosses the boundary between the two L2 options, which the
// profiler answers from one LRU stack (rank < 4 vs rank < 8). The suite
// regions cannot: their data footprints are at most 4 MB, the capacity of
// L2Cfg4M, so every suite profile has equal L2 misses for both options. The
// kernel cycles loads and stores over 5 lines that share one L2 set (a 1 MB
// stride), so every steady-state load has recency rank exactly 4: a miss for
// the 4-way option and a hit for the 8-way one.
func l2SplitKernel(t *testing.T) *code.Program {
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

// TestL2SplitDigest pins the profile of l2SplitKernel and checks that the
// kernel still separates the two L2 options, so the pinned split is not
// vacuous.
func TestL2SplitDigest(t *testing.T) {
	res, evHash, prof, cpf, err := profileRun(t, Predecode(l2SplitKernel(t)), mem.New(), RunOptions{MaxInstrs: 1 << 20})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for i := 0; i < 2; i++ {
		for d := 0; d < 2; d++ {
			m4, m8 := prof.Mem[i][d][0].L2Misses, prof.Mem[i][d][1].L2Misses
			if m4 < 1000 || m8 >= m4/10 {
				t.Errorf("Mem[%d][%d]: L2 misses %d (4-way) vs %d (8-way); want the 8-way option to absorb the 5-line cycle", i, d, m4, m8)
			}
		}
	}
	golden.Check(t, "l2split.golden", []string{"l2split\t" + profileDigest(cpf, evHash, res, err)}, false)
}

// TestTimingSubsetDigest pins the timing walk (predecoded micro-op
// templates fed by the table-driven event stream): ExecResult and
// TimingResult for the fixed x-ized sets and the minimal microx86 set over
// six regions, out-of-order and in-order.
func TestTimingSubsetDigest(t *testing.T) {
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
	var lines []string
	for _, fs := range sets {
		for _, r := range regions {
			for ci, cfg := range cfgs {
				prog, m := buildRegion(t, r, fs, &isa.X86Target)
				pd := Predecode(prog)
				tm := newTimingPre(pd, cfg)
				res, err := RunPredecoded(pd, NewState(m), RunOptions{MaxInstrs: cellBudget}, tm.Consume)
				lines = append(lines, fmt.Sprintf("%s %s cfg%d\t%+v %+v err=%q",
					fs.ShortName(), r.Name, ci, res, tm.Result(), errString(err)))
			}
		}
	}
	golden.Check(t, "timing.golden", lines, testing.Short())
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

// TestExecCorpusDigest pins the executor over a deterministic fuzz corpus:
// per program the ExecResult, a hash of every field of every event, a hash
// of the final Int, FP and Flags state, and the error text.
func TestExecCorpusDigest(t *testing.T) {
	rng := rand.New(rand.NewSource(0x5eed))
	corpus := 150
	if testing.Short() {
		corpus = 25
	}
	var lines []string
	for i := 0; i < corpus; i++ {
		p := fuzzProg(t, rng)
		opts := RunOptions{MaxInstrs: 10_000}
		if i%7 == 0 {
			// Pin the budget-abort path too.
			opts.MaxInstrs = 10
		}
		h := fnv.New64a()
		st := NewState(mem.New())
		res, err := RunPredecoded(Predecode(p), st, opts, func(ev *Event) { hashEvent(h, ev) })
		sh := fnv.New64a()
		f := st.Flags
		fmt.Fprintf(sh, "%v %v {zf:%v sf:%v of:%v cf:%v}", st.Int, st.FP, f.ZF, f.SF, f.OF, f.CF)
		lines = append(lines, fmt.Sprintf("prog%03d\tev=%016x state=%016x %+v err=%q",
			i, h.Sum64(), sh.Sum64(), res, errString(err)))
	}
	golden.Check(t, "execcorpus.golden", lines, testing.Short())
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
