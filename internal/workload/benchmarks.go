package workload

import (
	"compisa/internal/ir"
	"compisa/internal/mem"
)

// region builds a Region from a generator body.
func region(weight float64, seed uint32, body func(g *gen) ir.VReg) Region {
	return Region{
		Weight: weight,
		Build: func(width int) (*ir.Func, *mem.Memory, error) {
			g := newGen("region", width, seed, true, true)
			return g.finish(body(g))
		},
		code: func(width int) (*ir.Func, error) {
			g := newGen("region", width, seed, true, false)
			f, _, err := g.finish(body(g))
			return f, err
		},
		image: func(width int) (*mem.Memory, error) {
			g := newGen("region", width, seed, false, true)
			_, m, err := g.finish(body(g))
			return m, err
		},
	}
}

// combine xors a second kernel's checksum into the first.
func combine(g *gen, a, b ir.VReg) ir.VReg {
	g.b.Assign(a, ir.Xor, ir.I32, a, b)
	return a
}

// astar: grid path search — neighborhood minima through CMOVs, moderately
// biased improvement branches, pointer-y auxiliary structures. Footprints
// range from L1-resident to L2-resident.
func astar() Benchmark {
	return Benchmark{Name: "astar", Regions: []Region{
		region(0.24, 101, func(g *gen) ir.VReg { return gridKernel(g, 64, 2500) }),
		region(0.20, 102, func(g *gen) ir.VReg { return gridKernel(g, 128, 2500) }),
		region(0.16, 103, func(g *gen) ir.VReg { return gridKernel(g, 256, 2200) }),
		region(0.14, 104, func(g *gen) ir.VReg { return chaseKernel(g, 2048, 3500, 0.3) }),
		region(0.14, 105, func(g *gen) ir.VReg { return scanKernel(g, 4096, 2500, 3) }),
		region(0.12, 106, func(g *gen) ir.VReg {
			return diamondStormKernel(g, 2, 3, 16384, true, 800, 2)
		}),
	}}
}

// bzip2: byte-stream compression — table-driven byte processing with biased
// branches, one very register-hungry block-sort region (the paper observes
// exactly one bzip2 phase compiled at register depth 64), and bit packing.
func bzip2() Benchmark {
	return Benchmark{Name: "bzip2", Regions: []Region{
		region(0.16, 201, func(g *gen) ir.VReg { return byteTableKernel(g, 4096, 3000, 0.70) }),
		region(0.14, 202, func(g *gen) ir.VReg { return byteTableKernel(g, 16384, 3000, 0.80) }),
		region(0.12, 203, func(g *gen) ir.VReg { return byteTableKernel(g, 65536, 2600, 0.60) }),
		region(0.14, 204, func(g *gen) ir.VReg { return dpKernel(g, 34, 170) }),
		region(0.12, 205, func(g *gen) ir.VReg { return dpKernel(g, 18, 320) }),
		region(0.12, 206, func(g *gen) ir.VReg { return byteTableKernel(g, 8192, 3200, 0.92) }),
		region(0.10, 207, func(g *gen) ir.VReg { return byteTableKernel(g, 2048, 3200, 0.94) }),
		region(0.10, 208, func(g *gen) ir.VReg { return bitPackKernel(g, 5000) }),
	}}
}

// gobmk: go-playing — long chains of small data-dependent diamonds over
// board tables (irregular branch behavior the paper reports preferring full
// predication), plus board-scanning regions.
func gobmk() Benchmark {
	return Benchmark{Name: "gobmk", Regions: []Region{
		region(0.18, 301, func(g *gen) ir.VReg { return diamondStormKernel(g, 5, 2, 32768, false, 700, 14) }),
		region(0.16, 302, func(g *gen) ir.VReg { return diamondStormKernel(g, 6, 2, 32768, false, 650, 10) }),
		region(0.15, 303, func(g *gen) ir.VReg { return diamondStormKernel(g, 4, 3, 16384, false, 700, 16) }),
		region(0.14, 304, func(g *gen) ir.VReg { return diamondStormKernel(g, 8, 2, 65536, false, 500, 10) }),
		region(0.13, 305, func(g *gen) ir.VReg { return diamondStormKernel(g, 3, 10, 32768, true, 600, 4) }),
		region(0.13, 306, func(g *gen) ir.VReg { return gridKernel(g, 128, 2300) }),
		region(0.11, 307, func(g *gen) ir.VReg { return diamondStormKernel(g, 7, 2, 65536, false, 520, 14) }),
	}}
}

// hmmer: profile HMM search — the P7Viterbi recurrence with dozens of
// simultaneously live DP cells: the register-pressure extreme of the suite
// (the paper finds hmmer consistently compiled to use all 64 registers).
func hmmer() Benchmark {
	return Benchmark{Name: "hmmer", Regions: []Region{
		region(0.30, 401, func(g *gen) ir.VReg { return dpKernel(g, 36, 170) }),
		region(0.22, 402, func(g *gen) ir.VReg { return dpKernel(g, 32, 190) }),
		region(0.18, 403, func(g *gen) ir.VReg { return dpKernel(g, 30, 200) }),
		region(0.16, 404, func(g *gen) ir.VReg { return dpKernel(g, 34, 180) }),
		region(0.14, 405, func(g *gen) ir.VReg { return dpKernel(g, 26, 230) }),
	}}
}

// lbm: lattice-Boltzmann — streaming data-parallel f32 kernels
// (vectorizable), one scalar double-precision collision step, low register
// pressure (the paper observes lbm prefers a register depth of 16).
func lbm() Benchmark {
	return Benchmark{Name: "lbm", Regions: []Region{
		region(0.30, 501, func(g *gen) ir.VReg { return streamKernel(g, 2048, 2, false) }),
		region(0.26, 502, func(g *gen) ir.VReg { return streamKernel(g, 2048, 2, true) }),
		region(0.24, 503, func(g *gen) ir.VReg { return streamKernel(g, 16384, 1, false) }),
		region(0.20, 504, func(g *gen) ir.VReg { return fp64Kernel(g, 1024, 2600) }),
	}}
}

// mcf: min-cost flow — pointer chasing over node graphs whose footprint
// doubles under 64-bit pointers, plus sequential arc scans where x86's
// complex addressing pays off.
func mcf() Benchmark {
	return Benchmark{Name: "mcf", Regions: []Region{
		region(0.20, 601, func(g *gen) ir.VReg { return chaseKernel(g, 1024, 4000, 0.5) }),
		region(0.18, 602, func(g *gen) ir.VReg { return chaseKernel(g, 8192, 5000, 0.5) }),
		region(0.18, 603, func(g *gen) ir.VReg { return chaseKernel(g, 65536, 5000, 0.4) }),
		region(0.16, 604, func(g *gen) ir.VReg { return scanKernel(g, 4096, 2600, 4) }),
		region(0.15, 605, func(g *gen) ir.VReg { return scanKernel(g, 16384, 2400, 6) }),
		region(0.13, 606, func(g *gen) ir.VReg { return chaseKernel(g, 512, 4500, 0.8) }),
	}}
}

// milc: lattice QCD — data-parallel f32 field kernels plus clipping phases
// with unbiased branches; the paper reports the compiler predicating four of
// milc's six regions.
func milc() Benchmark {
	return Benchmark{Name: "milc", Regions: []Region{
		region(0.20, 701, func(g *gen) ir.VReg { return streamKernel(g, 1536, 2, false) }),
		region(0.18, 702, func(g *gen) ir.VReg {
			a := streamKernel(g, 1024, 1, false)
			b := diamondStormKernel(g, 3, 2, 4096, false, 500, 1)
			return combine(g, a, b)
		}),
		region(0.17, 703, func(g *gen) ir.VReg {
			a := streamKernel(g, 1024, 1, true)
			b := diamondStormKernel(g, 4, 2, 8192, false, 450, 1)
			return combine(g, a, b)
		}),
		region(0.16, 704, func(g *gen) ir.VReg { return diamondStormKernel(g, 4, 2, 8192, false, 650, 2) }),
		region(0.15, 705, func(g *gen) ir.VReg { return streamKernel(g, 4096, 2, true) }),
		region(0.14, 706, func(g *gen) ir.VReg { return byteTableKernel(g, 4096, 2800, 0.9) }),
	}}
}

// sjeng: chess search — magic-style hashed table probes with effectively
// random small diamonds (prefers full predication and, under register
// pressure, x86's memory operands).
func sjeng() Benchmark {
	return Benchmark{Name: "sjeng", Regions: []Region{
		region(0.18, 801, func(g *gen) ir.VReg { return diamondStormKernel(g, 5, 2, 65536, false, 650, 16) }),
		region(0.16, 802, func(g *gen) ir.VReg { return diamondStormKernel(g, 4, 2, 262144, false, 600, 14) }),
		region(0.15, 803, func(g *gen) ir.VReg { return diamondStormKernel(g, 6, 3, 131072, false, 520, 20) }),
		region(0.14, 804, func(g *gen) ir.VReg { return diamondStormKernel(g, 3, 2, 32768, false, 800, 10) }),
		region(0.13, 805, func(g *gen) ir.VReg {
			a := diamondStormKernel(g, 4, 2, 65536, false, 400, 6)
			b := scanKernel(g, 8192, 1200, 5)
			return combine(g, a, b)
		}),
		region(0.12, 806, func(g *gen) ir.VReg { return scanKernel(g, 8192, 2400, 5) }),
		region(0.12, 807, func(g *gen) ir.VReg { return dpKernel(g, 20, 260) }),
	}}
}
