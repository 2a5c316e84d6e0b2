// Migrationcost demonstrates process migration across composite-ISA cores:
// it compiles a register-hungry region for a deep-register feature set,
// binary-translates it for progressively narrower cores (feature
// downgrades), and reports the emulation cost of each (Figure 14 in
// miniature) — plus the free upgrade path back.
package main

import (
	"fmt"
	"log"

	"compisa/internal/code"
	"compisa/internal/compiler"
	"compisa/internal/cpu"
	"compisa/internal/isa"
	"compisa/internal/migrate"
	"compisa/internal/workload"
)

func main() {
	// hmmer's Viterbi region: the paper's heaviest register-depth user.
	region, ok := workload.RegionByName("hmmer.0")
	if !ok {
		log.Fatal("unknown region hmmer.0")
	}

	src := isa.MustNew(isa.MicroX86, 32, 64, isa.FullPredication)
	f, _, err := region.Build(src.Width)
	if err != nil {
		log.Fatal(err)
	}
	prog, err := compiler.Compile(f, src, compiler.Options{})
	if err != nil {
		log.Fatal(err)
	}
	prog.Name = region.Name

	cfg := cpu.CoreConfig{
		OoO: true, Width: 2, Predictor: cpu.PredTournament,
		IQ: 32, ROB: 64, PRFInt: 96, PRFFP: 64,
		IntALU: 3, IntMul: 1, FPALU: 2, LSQ: 16,
		L1I: cpu.L1Cfg32k, L1D: cpu.L1Cfg32k, L2: cpu.L2Cfg4M,
		UopCache: true, Fusion: true,
	}
	run := func(p *code.Program) (uint64, int64) {
		_, m, err := region.Build(src.Width)
		if err != nil {
			log.Fatal(err)
		}
		exec, timing, err := cpu.RunTimed(p, cpu.NewState(m), cfg, 40_000_000)
		if err != nil {
			log.Fatal(err)
		}
		return exec.Ret, timing.Cycles
	}

	baseSum, baseCycles := run(prog)
	fmt.Printf("compiled %s for %s: %d instrs, checksum %#x, %d cycles\n\n",
		region.Name, src.Name(), len(prog.Instrs), baseSum, baseCycles)

	targets := []isa.FeatureSet{
		isa.MustNew(isa.MicroX86, 32, 32, isa.FullPredication),    // depth 64->32
		isa.MustNew(isa.MicroX86, 32, 16, isa.FullPredication),    // depth 64->16
		isa.MustNew(isa.MicroX86, 32, 32, isa.PartialPredication), // + reverse if-conversion
		isa.MicroX86Min, // everything down
	}
	fmt.Println("feature downgrades (binary translation, same core):")
	for _, dst := range targets {
		trans, err := migrate.Translate(prog, dst)
		if err != nil {
			log.Fatal(err)
		}
		sum, cycles := run(trans)
		if sum != baseSum {
			log.Fatalf("translated checksum mismatch: %#x vs %#x", sum, baseSum)
		}
		fmt.Printf("  -> %-28s %5d instrs, %8d cycles (%+.1f%%)\n",
			dst.Name(), len(trans.Instrs), cycles, 100*(float64(cycles)/float64(baseCycles)-1))
	}

	fmt.Println("\nupgrade migration (no translation): code for", isa.MicroX86Min.Name())
	f2, _, err := region.Build(32)
	if err != nil {
		log.Fatal(err)
	}
	small, err := compiler.Compile(f2, isa.MicroX86Min, compiler.Options{})
	if err != nil {
		log.Fatal(err)
	}
	up, err := migrate.Translate(small, isa.Superset)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  microx86-8D-32W binary runs natively on the superset core: %v\n", up == small)
}
