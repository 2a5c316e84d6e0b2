// Command compose-cc compiles a benchmark region for a chosen composite
// feature set and prints the generated code and compilation statistics.
//
// Usage:
//
//	compose-cc -region hmmer.0 -complexity microx86 -width 32 -depth 64 -pred full [-asm]
package main

import (
	"flag"
	"fmt"
	"log"

	"compisa/internal/compiler"
	"compisa/internal/isa"
	"compisa/internal/workload"
)

func main() {
	region := flag.String("region", "hmmer.0", "region name (see -list)")
	list := flag.Bool("list", false, "list all regions and exit")
	complexity := flag.String("complexity", "x86", "x86 | microx86")
	width := flag.Int("width", 64, "register width: 32 | 64")
	depth := flag.Int("depth", 16, "register depth: 8 | 16 | 32 | 64")
	pred := flag.String("pred", "partial", "partial | full")
	target := flag.String("target", "", "guest-ISA encoding target: x86 | alpha64 (empty = x86)")
	asm := flag.Bool("asm", false, "dump the generated machine code")
	flag.Parse()

	if *list {
		for _, r := range workload.Regions() {
			fmt.Printf("%-10s weight %.2f\n", r.Name, r.Weight)
		}
		return
	}

	fs, err := isa.ParseFeatureSet(*complexity, *width, *depth, *pred)
	if err != nil {
		log.Fatal(err)
	}
	tgt, err := isa.ResolveTarget(*target)
	if err != nil {
		log.Fatal(err)
	}

	reg, ok := workload.RegionByName(*region)
	if !ok {
		log.Fatalf("unknown region %q (use -list)", *region)
	}

	f, _, err := reg.Build(fs.Width)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("region %s for %s\n", reg.Name, fs.Name())
	fmt.Printf("IR: %d blocks, %d virtual registers, max live pressure %d int / %d fp\n",
		len(f.Blocks), f.NumVRegs(), f.MaxLivePressure(false), f.MaxLivePressure(true))

	prog, err := compiler.Compile(f, fs, compiler.Options{Target: *target})
	if err != nil {
		log.Fatal(err)
	}
	st := prog.Stats
	fmt.Printf("code: %d instructions, %d bytes (%s encoding)\n", len(prog.Instrs), prog.Size, tgt.Name)
	fmt.Printf("stats: %d spill stores, %d refill loads, %d remats, %d if-conversions,\n",
		st.SpillStores, st.RefillLoads, st.Remats, st.IfConversions)
	fmt.Printf("       %d vector loops, %d scalarized loops, %d folded loads\n",
		st.VectorLoops, st.ScalarLoops, st.FoldedLoads)
	if *asm {
		fmt.Println(prog)
	}
}
