// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation. Each benchmark regenerates its table/figure and prints the
// rows/series the paper reports (once per run).
//
//	go test -bench=. -benchmem
package compisa

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"compisa/internal/check"
	"compisa/internal/code"
	"compisa/internal/compiler"
	"compisa/internal/cpu"
	"compisa/internal/encoding"
	"compisa/internal/explore"
	"compisa/internal/isa"
	"compisa/internal/jit"
	"compisa/internal/mem"
	"compisa/internal/perfmodel"
	"compisa/internal/power"
	"compisa/internal/workload"
)

var (
	benchOnce sync.Once
	benchDB   *explore.DB
	benchS    *explore.Searcher
	benchSess *explore.Session
	benchErr  error
)

func harness(b *testing.B) (*explore.DB, *explore.Searcher) {
	b.Helper()
	benchOnce.Do(func() {
		benchDB = explore.NewDB()
		benchS, benchErr = explore.NewSearcher(context.Background(), benchDB)
		benchSess = &explore.Session{S: benchS}
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchDB, benchS
}

func printOnce(b *testing.B, s string) {
	b.Helper()
	if b.N > 0 {
		fmt.Println(s)
	}
}

// benchPanel renders one panel of a named experiment per iteration, on the
// session every figure benchmark shares (so Figures 10/11 reuse Figure 9's
// designs and Figure 15 reuses Figure 14's costs, as compose-explore does).
func benchPanel(b *testing.B, name string, panel int) {
	harness(b)
	exps, err := explore.SelectExperiments(name)
	if err != nil {
		b.Fatal(err)
	}
	p := exps[0].Panels[panel]
	var out string
	for i := 0; i < b.N; i++ {
		if out, err = p(context.Background(), benchSess); err != nil {
			b.Fatal(err)
		}
	}
	printOnce(b, out)
}

func BenchmarkSec3CodegenDeltas(b *testing.B)             { benchPanel(b, "sec3", 0) }
func BenchmarkFig2InstructionMix(b *testing.B)            { benchPanel(b, "fig2", 0) }
func BenchmarkFig5MultiprogrammedThroughput(b *testing.B) { benchPanel(b, "fig5", 0) }
func BenchmarkFig6MultiprogrammedEDP(b *testing.B)        { benchPanel(b, "fig6", 0) }
func BenchmarkFig7SingleThreadPower(b *testing.B)         { benchPanel(b, "fig7", 0) }
func BenchmarkFig7SingleThreadPowerEDP(b *testing.B)      { benchPanel(b, "fig7", 1) }
func BenchmarkFig8SingleThreadArea(b *testing.B)          { benchPanel(b, "fig8", 0) }
func BenchmarkFig8SingleThreadAreaEDP(b *testing.B)       { benchPanel(b, "fig8", 1) }
func BenchmarkTable3ThroughputDesigns(b *testing.B)       { benchPanel(b, "table3", 0) }
func BenchmarkTable4EDPDesigns(b *testing.B)              { benchPanel(b, "table4", 0) }
func BenchmarkFig9FeatureConstraints(b *testing.B)        { benchPanel(b, "fig9", 0) }
func BenchmarkFig10TransistorInvestment(b *testing.B)     { benchPanel(b, "fig10", 0) }
func BenchmarkFig11EnergyBreakdown(b *testing.B)          { benchPanel(b, "fig11", 0) }
func BenchmarkFig12AffinitySingleThread(b *testing.B)     { benchPanel(b, "fig12", 0) }
func BenchmarkFig13AffinityMultiprogrammed(b *testing.B)  { benchPanel(b, "fig13", 0) }
func BenchmarkFig14DowngradeCost(b *testing.B)            { benchPanel(b, "fig14", 0) }
func BenchmarkFig15MigrationOverhead(b *testing.B)        { benchPanel(b, "fig15", 0) }

// BenchmarkDecoderModel exercises the Section V decoder-delta constants:
// peak power and area of the superset, x86-64, and microx86-32 decoders.
func BenchmarkDecoderModel(b *testing.B) {
	cfg := explore.ReferenceConfig()
	var out string
	for i := 0; i < b.N; i++ {
		x := power.Peak(power.Traits{FS: isa.X8664}, cfg)
		sSet := power.Peak(power.Traits{FS: isa.Superset}, cfg)
		m := power.Peak(power.Traits{FS: isa.MicroX86Min}, cfg)
		ax := power.Area(power.Traits{FS: isa.X8664}, cfg)
		as := power.Area(power.Traits{FS: isa.Superset}, cfg)
		am := power.Area(power.Traits{FS: isa.MicroX86Min}, cfg)
		out = fmt.Sprintf(
			"Decoder deltas vs x86-64 (core-level):\n"+
				"  superset decoder:    %+.2f%% peak power, %+.2f%% area (paper +0.3%%, +0.46%%)\n"+
				"  microx86-32 decoder: %+.2f%% peak power, %+.2f%% area (paper -0.66%%, -1.12%%)\n",
			100*(sSet.Decode-x.Decode)/x.Total(), 100*(as.Decode-ax.Decode)/ax.Total(),
			100*(m.Decode-x.Decode)/x.Total(), 100*(am.Decode-ax.Decode)/ax.Total())
	}
	printOnce(b, out)
}

// BenchmarkAblationParetoK sweeps the candidate-pruning cap of the multicore
// search, the tractability concession DESIGN.md calls out.
func BenchmarkAblationParetoK(b *testing.B) {
	db, s := harness(b)
	cands, err := s.Candidates(context.Background(), explore.OrgCompositeFull)
	if err != nil {
		b.Fatal(err)
	}
	var out string
	for i := 0; i < b.N; i++ {
		var lines string
		for _, k := range []int{60, 150, 300} {
			cmp, err := explore.Search(context.Background(), explore.SearchSpec{
				Candidates:    cands,
				Budget:        explore.Budget{AreaMM2: 64},
				Objective:     explore.ObjMPThroughput,
				MaxCandidates: k,
			}, db.Regions)
			if err != nil {
				b.Fatal(err)
			}
			lines += fmt.Sprintf("  K=%3d -> score %.4f\n", k, cmp.Score)
		}
		out = "Ablation: candidate-set cap vs search quality (MP throughput @64mm2)\n" + lines
	}
	printOnce(b, out)
}

// BenchmarkSearchMP times one multicore search end to end (pruning, seeds,
// hill climbing and the polish pass) on the warm composite-full candidates,
// for MP throughput under 40W. The Fig and Table benchmarks share one
// Searcher, so from their second iteration on they replay its frontier;
// this one runs the climb every iteration.
func BenchmarkSearchMP(b *testing.B) {
	db, s := harness(b)
	cands, err := s.Candidates(context.Background(), explore.OrgCompositeFull)
	if err != nil {
		b.Fatal(err)
	}
	spec := explore.SearchSpec{
		Candidates: cands,
		Budget:     explore.Budget{PeakW: 40},
		Objective:  explore.ObjMPThroughput,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := explore.Search(context.Background(), spec, db.Regions); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationUopCache quantifies the micro-op cache's role: the same
// region with and without it, on the detailed simulator.
func BenchmarkAblationUopCache(b *testing.B) {
	var reg workload.Region
	for _, r := range workload.Regions() {
		if r.Name == "sjeng.2" { // largest code footprint
			reg = r
		}
	}
	cfg := explore.ReferenceConfig()
	var out string
	for i := 0; i < b.N; i++ {
		var res [2]int64
		for v, on := range []bool{true, false} {
			c := cfg
			c.UopCache = on
			f, m, err := reg.Build(64)
			if err != nil {
				b.Fatal(err)
			}
			prog, err := compiler.Compile(f, isa.X8664, compiler.Options{})
			if err != nil {
				b.Fatal(err)
			}
			_, tr, err := cpu.RunTimed(prog, cpu.NewState(m), c, 50_000_000)
			if err != nil {
				b.Fatal(err)
			}
			res[v] = tr.Cycles
		}
		out = fmt.Sprintf("Ablation: micro-op cache on sjeng.2 (big code): with %d cycles, without %d (%+.1f%%)\n",
			res[0], res[1], 100*(float64(res[1])/float64(res[0])-1))
	}
	printOnce(b, out)
}

// BenchmarkProfilePass measures the cost of one (region, feature set)
// profiling pass — the unit of work behind the 26x49 sweep.
func BenchmarkProfilePass(b *testing.B) {
	var reg workload.Region
	for _, r := range workload.Regions() {
		if r.Name == "gobmk.0" {
			reg = r
		}
	}
	for i := 0; i < b.N; i++ {
		f, m, err := reg.Build(64)
		if err != nil {
			b.Fatal(err)
		}
		prog, err := compiler.Compile(f, isa.X8664, compiler.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := cpu.CollectProfile(prog, m, 40_000_000); err != nil {
			b.Fatal(err)
		}
	}
}

// jitHotLoopProg hand-builds the JIT benchmark workload: a two-level loop
// summing and writing back an 8192-qword array for 160 passes (~8M retired
// instructions of loads, stores, ALU, compares, and taken branches). Suite
// regions retire well under 100k instructions, so a profile pass over them
// is dominated by event modeling, not execution; this loop is the regime
// the executor's speed actually governs. The array is materialized in
// memory up front so the engine's data window covers it.
func jitHotLoopProg(b *testing.B) (*code.Program, *mem.Memory) {
	b.Helper()
	const elems, passes = 8192, 160
	ins := func(op code.Op, sz uint8) code.Instr {
		return code.Instr{Op: op, Sz: sz, Dst: code.NoReg, Src1: code.NoReg, Src2: code.NoReg,
			Pred: code.NoReg, Mem: code.Mem{Base: code.NoReg, Index: code.NoReg, Scale: 1}}
	}
	movImm := func(dst code.Reg, v int64) code.Instr {
		in := ins(code.MOV, 8)
		in.Dst = dst
		in.HasImm, in.Imm = true, v
		return in
	}
	alu := func(op code.Op, dst, src2 code.Reg) code.Instr {
		in := ins(op, 8)
		in.Dst, in.Src1, in.Src2 = dst, dst, src2
		return in
	}
	arr := func(op code.Op) code.Instr {
		in := ins(op, 8)
		in.HasMem = true
		in.Mem = code.Mem{Base: 8, Index: 1, Scale: 8}
		return in
	}
	ld := arr(code.LD)
	ld.Dst = 3
	st := arr(code.ST)
	st.Src1 = 0
	cmpIN := ins(code.CMP, 8)
	cmpIN.Src1, cmpIN.Src2 = 1, 2
	cmpOUT := ins(code.CMP, 8)
	cmpOUT.Src1, cmpOUT.Src2 = 4, 5
	jlt := func(target int32) code.Instr {
		in := ins(code.JCC, 0)
		in.CC, in.Target = code.CCLT, target
		return in
	}
	ret := ins(code.RET, 0)
	ret.Src1 = 0
	p := &code.Program{Name: "jit-hot-loop", FS: isa.X8664, Instrs: []code.Instr{
		movImm(8, int64(code.DataBase)), // 0: base
		movImm(2, elems),                // 1
		movImm(6, 1),                    // 2: constant one
		movImm(0, 0),                    // 3: sum
		movImm(4, 0),                    // 4: pass
		movImm(5, passes),               // 5
		movImm(1, 0),                    // 6: i = 0 (outer loop head)
		ld,                              // 7: r3 = a[i] (inner loop head)
		alu(code.ADD, 0, 3),             // 8: sum += r3
		st,                              // 9: a[i] = sum
		alu(code.ADD, 1, 6),             // 10: i++
		cmpIN,                           // 11
		jlt(7),                          // 12
		alu(code.ADD, 4, 6),             // 13: pass++
		cmpOUT,                          // 14
		jlt(6),                          // 15
		ret,                             // 16
	}}
	if err := p.Validate(); err != nil {
		b.Fatal(err)
	}
	if err := encoding.Layout(p, code.CodeBase); err != nil {
		b.Fatal(err)
	}
	m := mem.New()
	for i := uint64(0); i < elems; i++ {
		m.Write(code.DataBase+8*i, 8, i)
	}
	return p, m
}

// jitColdExec measures one cold execution of the hot-loop workload through
// cpu.RunPredecoded — the seam the JIT plugs into. Memory cloning, state
// setup, and (on the JIT side) engine construction are untimed, so the JIT
// iterations pay native compilation plus native execution against the
// interpreter's execution alone.
func jitColdExec(b *testing.B, useJIT bool) {
	if useJIT && !jit.Available() {
		b.Skip("jit: native execution unavailable on this platform")
	}
	p, m := jitHotLoopProg(b)
	pd := cpu.Predecode(p)
	var instrs int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		st := cpu.NewState(m.Clone())
		opts := cpu.RunOptions{MaxInstrs: 100_000_000}
		var eng *jit.Engine
		if useJIT {
			eng = jit.New(jit.Config{}) // fresh engine: every iteration compiles cold
			opts.JIT = eng
		}
		b.StartTimer()
		res, err := cpu.RunPredecoded(pd, st, opts, nil)
		if err != nil {
			b.Fatal(err)
		}
		instrs += res.Instrs
		if eng != nil {
			if s := eng.Stats(); s.Runs != 1 || s.Deopts != 0 {
				b.Fatalf("benchmark workload not served natively deopt-free: %+v", s)
			}
		}
	}
	b.ReportMetric(float64(instrs)/b.Elapsed().Seconds(), "instrs/s")
}

// BenchmarkJITCold is the headline number for internal/jit: a cold run
// of the hot-loop workload through the template JIT, including native
// compilation. Compare against BenchmarkJITColdInterp — the same run on
// the interpreter — for the speedup the engine buys; the committed baseline
// records the native side at least 5x faster.
func BenchmarkJITCold(b *testing.B) { jitColdExec(b, true) }

// BenchmarkJITColdInterp is BenchmarkJITCold's interpreter companion: the
// identical execution with no engine wired.
func BenchmarkJITColdInterp(b *testing.B) { jitColdExec(b, false) }

// BenchmarkJITCompile isolates template compilation: translating one
// predecoded region to native code, cold each iteration. Two programs
// alternate through a one-entry cache so every Compile both recompiles
// cold and promptly unmaps the evicted module.
func BenchmarkJITCompile(b *testing.B) {
	if !jit.Available() {
		b.Skip("jit: native execution unavailable on this platform")
	}
	var pds [2]*cpu.Predecoded
	for i, name := range []string{"gobmk.0", "hmmer.0"} {
		var reg workload.Region
		for _, r := range workload.Regions() {
			if r.Name == name {
				reg = r
			}
		}
		f, _, err := reg.Build(64)
		if err != nil {
			b.Fatal(err)
		}
		prog, err := compiler.Compile(f, isa.X8664, compiler.Options{})
		if err != nil {
			b.Fatal(err)
		}
		prog.Name = name
		pds[i] = cpu.Predecode(prog)
	}
	eng := jit.New(jit.Config{CacheEntries: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Compile(pds[i%2]); err != nil {
			b.Fatal(err)
		}
	}
	if s := eng.Stats(); s.CacheHits > 0 {
		b.Fatalf("compiles were not cold: %+v", s)
	}
}

// BenchmarkAnalyzeRegion measures check.Analyze (CFG recovery, dataflow,
// both abstract interpretations and every rule) over one compiled region —
// the cost eval pays per (region, ISA) pair when verification is enabled.
func BenchmarkAnalyzeRegion(b *testing.B) {
	var reg workload.Region
	for _, r := range workload.Regions() {
		if r.Name == "gobmk.0" {
			reg = r
		}
	}
	f, _, err := reg.Build(64)
	if err != nil {
		b.Fatal(err)
	}
	prog, err := compiler.Compile(f, isa.X8664, compiler.Options{Verify: compiler.VerifyOff})
	if err != nil {
		b.Fatal(err)
	}
	prog.Name = reg.Name
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rep := check.Analyze(prog); len(rep.Findings) != 0 {
			b.Fatalf("clean region produced findings: %v", rep.Findings)
		}
	}
}

var (
	hotOnce sync.Once
	hotProg *struct {
		prog *cpu.Predecoded
		prof *cpu.Profile
	}
	hotErr error
)

// hotPath compiles and profiles gobmk.0 once, for the hot-path
// micro-benchmarks that measure one stage (predecode, scoring, codec) in
// isolation rather than the whole pass.
func hotPath(b *testing.B) (*cpu.Predecoded, *cpu.Profile) {
	b.Helper()
	hotOnce.Do(func() {
		var reg workload.Region
		for _, r := range workload.Regions() {
			if r.Name == "gobmk.0" {
				reg = r
			}
		}
		f, m, err := reg.Build(64)
		if err != nil {
			hotErr = err
			return
		}
		prog, err := compiler.Compile(f, isa.X8664, compiler.Options{})
		if err != nil {
			hotErr = err
			return
		}
		prog.Name = reg.Name
		prof, _, err := cpu.CollectProfile(prog, m, 40_000_000)
		if err != nil {
			hotErr = err
			return
		}
		hotProg = &struct {
			prog *cpu.Predecoded
			prof *cpu.Profile
		}{cpu.Predecode(prog), prof}
	})
	if hotErr != nil {
		b.Fatal(hotErr)
	}
	return hotProg.prog, hotProg.prof
}

// BenchmarkPredecode measures building the predecoded program form — the
// per-program cost amortized across every profiling and timing pass.
func BenchmarkPredecode(b *testing.B) {
	pd, _ := hotPath(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cpu.Predecode(pd.P)
	}
}

// BenchmarkPredecodeAlpha64 measures predecode over the fixed-length
// alpha64 encoding of the same region: decode is one-step (constant
// 4-byte stride, no length parsing), so this bounds the decode-side cost
// of the vendor baseline's measured Alpha design points.
func BenchmarkPredecodeAlpha64(b *testing.B) {
	var reg workload.Region
	for _, r := range workload.Regions() {
		if r.Name == "gobmk.0" {
			reg = r
		}
	}
	fs := isa.X86izedAlpha
	f, _, err := reg.Build(fs.Width)
	if err != nil {
		b.Fatal(err)
	}
	prog, err := compiler.Compile(f, fs, compiler.Options{Target: "alpha64"})
	if err != nil {
		b.Fatal(err)
	}
	prog.Name = reg.Name
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cpu.Predecode(prog)
	}
}

// BenchmarkBatchScore measures scoring one profile across the full
// exploration configuration grid through the batch Scorer.
func BenchmarkBatchScore(b *testing.B) {
	_, prof := hotPath(b)
	cfgs := explore.Configs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := perfmodel.CyclesBatch(prof, cfgs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProfileEncode measures one binary encode/decode roundtrip of a
// profile — the unit cost of checkpointing a sweep's profile cache.
func BenchmarkProfileEncode(b *testing.B) {
	_, prof := hotPath(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, err := prof.MarshalBinary()
		if err != nil {
			b.Fatal(err)
		}
		var back cpu.Profile
		if err := back.UnmarshalBinary(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDetailedSim measures the detailed cycle simulator's throughput.
func BenchmarkDetailedSim(b *testing.B) {
	var reg workload.Region
	for _, r := range workload.Regions() {
		if r.Name == "bzip2.0" {
			reg = r
		}
	}
	cfg := explore.ReferenceConfig()
	var instrs int64
	for i := 0; i < b.N; i++ {
		f, m, err := reg.Build(64)
		if err != nil {
			b.Fatal(err)
		}
		prog, err := compiler.Compile(f, isa.X8664, compiler.Options{})
		if err != nil {
			b.Fatal(err)
		}
		exec, _, err := cpu.RunTimed(prog, cpu.NewState(m), cfg, 40_000_000)
		if err != nil {
			b.Fatal(err)
		}
		instrs += exec.Instrs
	}
	b.ReportMetric(float64(instrs)/b.Elapsed().Seconds(), "instrs/s")
}

// BenchmarkAblationGreenfieldEncoding quantifies the paper's Section V.A
// remark that a from-scratch superset ISA "would allow much tighter encoding
// of these options": the same superset-ISA region laid out under the
// x86-compatible encoding vs. single-byte REXBC/predicate prefixes.
func BenchmarkAblationGreenfieldEncoding(b *testing.B) {
	names := []string{"hmmer.0", "sjeng.2", "gobmk.0"}
	var out string
	for i := 0; i < b.N; i++ {
		var lines string
		for _, name := range names {
			var reg workload.Region
			for _, r := range workload.Regions() {
				if r.Name == name {
					reg = r
				}
			}
			fs := isa.Superset
			f1, m1, err := reg.Build(fs.Width)
			if err != nil {
				b.Fatal(err)
			}
			legacy, err := compiler.Compile(f1, fs, compiler.Options{})
			if err != nil {
				b.Fatal(err)
			}
			f2, m2, err := reg.Build(fs.Width)
			if err != nil {
				b.Fatal(err)
			}
			compact, err := compiler.Compile(f2, fs, compiler.Options{CompactEncoding: true})
			if err != nil {
				b.Fatal(err)
			}
			cfg := explore.ReferenceConfig()
			_, trL, err := cpu.RunTimed(legacy, cpu.NewState(m1), cfg, 50_000_000)
			if err != nil {
				b.Fatal(err)
			}
			_, trC, err := cpu.RunTimed(compact, cpu.NewState(m2), cfg, 50_000_000)
			if err != nil {
				b.Fatal(err)
			}
			lines += fmt.Sprintf("  %-10s code %6dB -> %6dB (%.1f%% denser); cycles %8d -> %8d (%+.1f%%)\n",
				name, legacy.Size, compact.Size, 100*(1-float64(compact.Size)/float64(legacy.Size)),
				trL.Cycles, trC.Cycles, 100*(float64(trC.Cycles)/float64(trL.Cycles)-1))
		}
		out = "Ablation: from-scratch superset encoding (1-byte REXBC/pred prefixes) on the superset ISA\n" + lines
	}
	printOnce(b, out)
}
