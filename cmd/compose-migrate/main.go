// Command compose-migrate compiles a region for a source feature set,
// binary-translates it for a downgrade target, runs both on the same core,
// and reports the emulation cost — one cell of Figure 14.
//
// Usage:
//
//	compose-migrate -region hmmer.0 -from-depth 64 -to-depth 16
package main

import (
	"flag"
	"fmt"
	"log"

	"compisa/internal/code"
	"compisa/internal/compiler"
	"compisa/internal/cpu"
	"compisa/internal/explore"
	"compisa/internal/isa"
	"compisa/internal/migrate"
	"compisa/internal/workload"
)

func main() {
	region := flag.String("region", "hmmer.0", "region name")
	fromCplx := flag.String("from-complexity", "microx86", "x86 | microx86")
	fromWidth := flag.Int("from-width", 32, "source register width")
	fromDepth := flag.Int("from-depth", 64, "source register depth")
	fromPred := flag.String("from-pred", "partial", "partial | full")
	toCplx := flag.String("to-complexity", "microx86", "x86 | microx86")
	toWidth := flag.Int("to-width", 32, "target register width")
	toDepth := flag.Int("to-depth", 16, "target register depth")
	toPred := flag.String("to-pred", "partial", "partial | full")
	fromTarget := flag.String("from-target", "", "source core's guest-ISA encoding (x86 | alpha64; empty = x86)")
	toTarget := flag.String("to-target", "", "destination core's guest-ISA encoding (x86 | alpha64; empty = x86)")
	flag.Parse()

	src, err := isa.ParseFeatureSet(*fromCplx, *fromWidth, *fromDepth, *fromPred)
	if err != nil {
		log.Fatal(err)
	}
	dst, err := isa.ParseFeatureSet(*toCplx, *toWidth, *toDepth, *toPred)
	if err != nil {
		log.Fatal(err)
	}
	fromTgt, err := isa.ResolveTarget(*fromTarget)
	if err != nil {
		log.Fatal(err)
	}
	toTgt, err := isa.ResolveTarget(*toTarget)
	if err != nil {
		log.Fatal(err)
	}

	reg, ok := workload.RegionByName(*region)
	if !ok {
		log.Fatalf("unknown region %q", *region)
	}

	f, _, err := reg.Build(src.Width)
	if err != nil {
		log.Fatal(err)
	}
	prog, err := compiler.Compile(f, src, compiler.Options{Target: *fromTarget})
	if err != nil {
		log.Fatal(err)
	}
	prog.Name = reg.Name

	// Cross-encoding migrations pay a one-time binary-translation and
	// state-transformation latency on top of (and independent of) any
	// feature-set downgrade cost; it is priced from the measured code size
	// of the source encoding and the targets' register-file geometries.
	printCrossISA := func() {
		if fromTgt.Name == toTgt.Name {
			fmt.Printf("cross-ISA: none (both cores fetch the %s encoding)\n", fromTgt.Name)
			return
		}
		c := migrate.MigrationCost(prog, toTgt)
		fmt.Printf("cross-ISA %s -> %s: %d cycles one-time migration latency (%.1f us at 3 GHz)\n",
			fromTgt.Name, toTgt.Name, c.Total(), float64(c.Total())/3000)
		fmt.Printf("  translation %d cycles (%d code bytes measured in the %s encoding)\n",
			c.TranslationCycles, prog.Size, fromTgt.Name)
		fmt.Printf("  state       %d cycles (union register file)\n", c.StateCycles)
		fmt.Printf("  runtime     %d cycles fixed handoff\n", c.FixedCycles)
	}

	if dst.Subsumes(src) {
		fmt.Printf("%s -> %s is an upgrade: native execution, zero translation cost\n",
			src.Name(), dst.Name())
		printCrossISA()
		return
	}
	fmt.Printf("downgrades required: %v\n", isa.Downgrades(src, dst))

	trans, err := migrate.Translate(prog, dst)
	if err != nil {
		log.Fatal(err)
	}

	cfg := explore.DowngradeEvalConfig()
	run := func(p *code.Program) (uint64, int64) {
		_, m, err := reg.Build(src.Width)
		if err != nil {
			log.Fatal(err)
		}
		exec, timing, err := cpu.RunTimed(p, cpu.NewState(m), cfg, 100_000_000)
		if err != nil {
			log.Fatal(err)
		}
		return exec.Ret, timing.Cycles
	}
	sumA, cycA := run(prog)
	sumB, cycB := run(trans)
	if sumA != sumB {
		log.Fatalf("translation changed the checksum: %#x vs %#x", sumA, sumB)
	}
	fmt.Printf("%s: %s (%d instrs) -> %s (%d instrs)\n",
		reg.Name, src.ShortName(), len(prog.Instrs), dst.ShortName(), len(trans.Instrs))
	fmt.Printf("checksum %#x preserved\n", sumA)
	fmt.Printf("cycles: native %d, translated %d => %+.1f%% emulation cost\n",
		cycA, cycB, 100*(float64(cycB)/float64(cycA)-1))
	printCrossISA()
}
