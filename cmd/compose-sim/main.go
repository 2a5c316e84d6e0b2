// Command compose-sim compiles a benchmark region for a composite feature
// set and runs it on a detailed core model, printing execution and timing
// statistics.
//
// Usage:
//
//	compose-sim -region sjeng.0 -complexity microx86 -width 32 -depth 16 \
//	    -pred full -ooo -issue 2 -predictor tournament
package main

import (
	"flag"
	"fmt"
	"log"

	"compisa/internal/compiler"
	"compisa/internal/cpu"
	"compisa/internal/isa"
	"compisa/internal/workload"
)

func main() {
	region := flag.String("region", "sjeng.0", "region name")
	complexity := flag.String("complexity", "x86", "x86 | microx86")
	width := flag.Int("width", 64, "register width: 32 | 64")
	depth := flag.Int("depth", 16, "register depth: 8 | 16 | 32 | 64")
	pred := flag.String("pred", "partial", "partial | full")
	ooo := flag.Bool("ooo", true, "out-of-order execution")
	issue := flag.Int("issue", 2, "fetch/issue width: 1 | 2 | 4")
	predictor := flag.String("predictor", "tournament", "local | gshare | tournament")
	l1 := flag.Int("l1", 32, "L1 size in KB: 32 | 64")
	l2 := flag.Int("l2", 4, "shared L2 size in MB: 4 | 8")
	flag.Parse()

	fs, err := isa.ParseFeatureSet(*complexity, *width, *depth, *pred)
	if err != nil {
		log.Fatal(err)
	}

	var pk cpu.PredictorKind
	switch *predictor {
	case "local":
		pk = cpu.PredLocal
	case "gshare":
		pk = cpu.PredGShare
	case "tournament":
		pk = cpu.PredTournament
	default:
		log.Fatalf("unknown -predictor %q (have local, gshare, tournament)", *predictor)
	}
	var l1c, l2c cpu.CacheCfg
	switch *l1 {
	case 32:
		l1c = cpu.L1Cfg32k
	case 64:
		l1c = cpu.L1Cfg64k
	default:
		log.Fatalf("unknown -l1 %d (have 32, 64)", *l1)
	}
	switch *l2 {
	case 4:
		l2c = cpu.L2Cfg4M
	case 8:
		l2c = cpu.L2Cfg8M
	default:
		log.Fatalf("unknown -l2 %d (have 4, 8)", *l2)
	}
	cfg := cpu.CoreConfig{
		OoO: *ooo, Width: *issue, Predictor: pk,
		IQ: 32, ROB: 64, PRFInt: 96, PRFFP: 64,
		IntALU: 3, IntMul: 1, FPALU: 2, LSQ: 16,
		L1I: l1c, L1D: l1c, L2: l2c,
		UopCache: true, Fusion: true,
	}
	if *issue >= 4 {
		cfg.IQ, cfg.ROB, cfg.PRFInt, cfg.PRFFP = 64, 128, 192, 160
		cfg.IntALU, cfg.IntMul, cfg.FPALU, cfg.LSQ = 6, 2, 4, 32
	}
	if err := cfg.Validate(); err != nil {
		log.Fatal(err)
	}

	reg, ok := workload.RegionByName(*region)
	if !ok {
		log.Fatalf("unknown region %q", *region)
	}

	f, m, err := reg.Build(fs.Width)
	if err != nil {
		log.Fatal(err)
	}
	prog, err := compiler.Compile(f, fs, compiler.Options{})
	if err != nil {
		log.Fatal(err)
	}
	prog.Name = reg.Name
	exec, timing, err := cpu.RunTimed(prog, cpu.NewState(m), cfg, 100_000_000)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s on %s @ %s\n", reg.Name, fs.Name(), cfg.Name())
	fmt.Printf("  checksum          %#x\n", exec.Ret)
	fmt.Printf("  instructions      %d (%d micro-ops)\n", exec.Instrs, exec.Uops)
	fmt.Printf("  cycles            %d (IPC %.2f)\n", timing.Cycles, timing.IPC())
	fmt.Printf("  branches          %d (%.1f%% mispredicted, MPKI %.2f)\n",
		timing.Branches, 100*float64(timing.Mispredicts)/maxf(1, float64(timing.Branches)), timing.MPKI())
	fmt.Printf("  L1D               %d accesses, %d misses\n", timing.L1DAccesses, timing.L1DMisses)
	fmt.Printf("  L2                %d accesses, %d misses\n", timing.L2Accesses, timing.L2Misses)
	fmt.Printf("  uop cache         %.1f%% hit rate, %d decode activations\n",
		100*float64(timing.UopCacheHits)/maxf(1, float64(timing.UopCacheAccesses)), timing.DecodeActivations)
	fmt.Printf("  predicated-off    %d micro-ops\n", timing.PredOffUops)
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
