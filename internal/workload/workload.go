// Package workload provides the benchmark suite: eight synthetic programs
// modeled on the SPEC CPU2006 benchmarks the paper evaluates (astar, bzip2,
// gobmk, hmmer, lbm, mcf, milc, sjeng), split into the paper's 49 SimPoint
// regions. Each region is an IR generator plus a deterministic data
// initializer; the per-benchmark execution characteristics the paper reports
// (hmmer's extreme register pressure, sjeng/gobmk's irregular branches,
// lbm/milc's vector activity, mcf's pointer chasing) are produced
// mechanistically by the generated code, so feature affinity emerges from
// compilation and execution rather than from dialed-in constants.
package workload

import (
	"fmt"

	"compisa/internal/ir"
	"compisa/internal/mem"
)

// Region is one compilable, independently schedulable code region (the unit
// a SimPoint represents). Build is deterministic and parameterized by the
// target register width, because pointer size changes data layout.
type Region struct {
	// Benchmark is the owning benchmark name.
	Benchmark string
	// Name identifies the region, e.g. "hmmer.viterbi2".
	Name string
	// Index is the region's position within its benchmark.
	Index int
	// Weight is the region's SimPoint weight within the benchmark
	// (weights sum to 1 per benchmark).
	Weight float64
	// Build generates the region's IR and initial memory image. It fails
	// (typed *OverflowError) if the generator exhausts the data region.
	Build func(width int) (*ir.Func, *mem.Memory, error)
	// code, when set, generates Build's IR without the memory image.
	code func(width int) (*ir.Func, error)
	// image, when set, generates Build's memory image without the IR.
	image func(width int) (*mem.Memory, error)
}

// Code generates the region's IR exactly as Build does, without building
// its memory image: for callers that compile a region they may never run.
func (r Region) Code(width int) (*ir.Func, error) {
	if r.code == nil {
		f, _, err := r.Build(width)
		return f, err
	}
	return r.code(width)
}

// Image generates the region's initial memory image exactly as Build does,
// without keeping its IR: for callers that run code compiled earlier.
func (r Region) Image(width int) (*mem.Memory, error) {
	if r.image == nil {
		_, m, err := r.Build(width)
		return m, err
	}
	return r.image(width)
}

// Benchmark is a named sequence of regions.
type Benchmark struct {
	Name    string
	Regions []Region
}

// Suite returns the eight benchmarks with all 49 regions, in deterministic
// order.
func Suite() []Benchmark {
	bs := []Benchmark{
		astar(), bzip2(), gobmk(), hmmer(), lbm(), mcf(), milc(), sjeng(),
	}
	for bi := range bs {
		total := 0.0
		for ri := range bs[bi].Regions {
			r := &bs[bi].Regions[ri]
			r.Benchmark = bs[bi].Name
			r.Index = ri
			r.Name = fmt.Sprintf("%s.%d", bs[bi].Name, ri)
			total += r.Weight
		}
		// Normalize weights defensively.
		for ri := range bs[bi].Regions {
			bs[bi].Regions[ri].Weight /= total
		}
	}
	return bs
}

// Regions flattens the suite into all 49 regions.
func Regions() []Region {
	var out []Region
	for _, b := range Suite() {
		out = append(out, b.Regions...)
	}
	return out
}

// RegionByName returns the region with the given name ("hmmer.0").
func RegionByName(name string) (Region, bool) {
	for _, r := range Regions() {
		if r.Name == name {
			return r, true
		}
	}
	return Region{}, false
}

// ByName returns the benchmark with the given name.
func ByName(name string) (Benchmark, error) {
	for _, b := range Suite() {
		if b.Name == name {
			return b, nil
		}
	}
	return Benchmark{}, fmt.Errorf("workload: unknown benchmark %q", name)
}

// Names lists the benchmark names in suite order.
func Names() []string {
	return []string{"astar", "bzip2", "gobmk", "hmmer", "lbm", "mcf", "milc", "sjeng"}
}
