package workload

import (
	"compisa/internal/ir"
)

// This file contains the kernel archetypes the benchmarks are assembled
// from. Each returns the checksum register; callers pass it to gen.finish.

// dpKernel is a Viterbi-style dynamic-programming recurrence that keeps K
// state cells live in virtual registers across the outer loop — the paper's
// register-pressure archetype (hmmer). Per outer iteration each cell is
// updated from its neighbor and a table element; max is computed with
// selects (CMOV), so the kernel is essentially branch-free, exactly like
// hmmer's P7Viterbi.
func dpKernel(g *gen, k int, iters int64) ir.VReg {
	b := g.b
	tm := g.arrayI32(64+k, func(i int) uint32 { return g.rand() % 512 })
	ti := g.arrayI32(64+k, func(i int) uint32 { return g.rand() % 512 })
	tmBase := b.Const(ir.Ptr, int64(tm))
	tiBase := b.Const(ir.Ptr, int64(ti))
	cells := make([]ir.VReg, k)
	for i := range cells {
		cells[i] = b.Const(ir.I32, int64(g.rand()%97))
	}
	acc := b.Const(ir.I32, 1)
	mask := b.Const(ir.I32, 63)
	g.loop(iters, func(i ir.VReg) {
		idx := b.Bin(ir.And, ir.I32, i, mask)
		for c := 0; c < k; c++ {
			prev := cells[(c+k-1)%k]
			tmv := b.Load(ir.I32, tmBase, idx, 4, int64(c*4))
			tiv := b.Load(ir.I32, tiBase, idx, 4, int64(c*4))
			p1 := b.Bin(ir.Add, ir.I32, prev, tmv)
			p2 := b.Bin(ir.Add, ir.I32, cells[c], tiv)
			cge := b.Cmp(ir.GE, ir.I32, p1, p2)
			mustSelect(b, cge, p1, p2, cells[c])
		}
		g.mix32(acc, cells[k-1])
	})
	for _, c := range cells {
		b.Assign(acc, ir.Xor, ir.I32, acc, c)
	}
	return acc
}

// mustSelect writes "dst = cond ? a : b" into an existing register via a
// fresh select and a copy, returning dst for convenience.
func mustSelect(b *ir.Builder, cond, a, bv, dst ir.VReg) ir.VReg {
	s := b.Select(ir.I32, cond, a, bv)
	b.Copy(dst, s)
	return dst
}

// byteTableKernel processes a byte stream through a small table with a
// biased branch — the bzip2 archetype (MTF / RLE inner loops).
func byteTableKernel(g *gen, streamLen int, iters int64, pTaken float64) ir.VReg {
	b := g.b
	stream := g.bytesArr(streamLen, func(i int) byte { return byte(g.rand()) })
	table := g.bytesArr(256, func(i int) byte { return byte(i) })
	sBase := b.Const(ir.Ptr, int64(stream))
	tBase := b.Const(ir.Ptr, int64(table))
	acc := b.Const(ir.I32, 0)
	mask := b.Const(ir.I32, int64(streamLen-1))
	threshold := b.Const(ir.I32, int64(256*pTaken))
	one := b.Const(ir.I32, 1)
	g.loop(iters, func(i ir.VReg) {
		idx := b.Bin(ir.And, ir.I32, i, mask)
		v := b.LoadByte(sBase, idx, 1, 0)
		tv := b.LoadByte(tBase, v, 1, 0)
		c := b.Cmp(ir.LT, ir.I32, tv, threshold)
		g.ifThenElse(c, pTaken, func() {
			nv := b.Bin(ir.Add, ir.I32, tv, one)
			b.StoreByte(nv, tBase, v, 1, 0)
			g.mix32(acc, nv)
		}, func() {
			b.Assign(acc, ir.Add, ir.I32, acc, tv)
		})
	})
	return acc
}

// diamondStormKernel is the irregular-branch archetype (sjeng/gobmk): a
// chain of small data-dependent diamonds per iteration whose conditions come
// from table bits. When predictable is false the conditions are effectively
// random, punishing every branch predictor — the code the paper reports
// migrating to fully predicated feature sets.
// diamondStormKernel's unroll parameter replicates the diamond chain into
// distinct static code copies, modeling the large instruction footprints of
// gobmk/sjeng: the hot code exceeds the micro-op cache's reach (and at high
// unroll pressures the I-cache), so instruction-set density starts to
// matter — full x86's folded memory operands encode the same work in fewer,
// denser instructions.
func diamondStormKernel(g *gen, nDiamonds, armOps int, tableBytes int, predictable bool, iters int64, unroll int) ir.VReg {
	if unroll < 1 {
		unroll = 1
	}
	iters = iters / int64(unroll)
	b := g.b
	tbl := g.bytesArr(tableBytes, func(i int) byte {
		if predictable {
			return byte(i % 16) // biased, patterned
		}
		// High LCG bits: the low bits of an LCG are themselves
		// patterned and would make the branches learnable.
		return byte(g.rand() >> 16)
	})
	tBase := b.Const(ir.Ptr, int64(tbl))
	// Word table: board-style lookups whose values feed the arms'
	// arithmetic; on full x86 these fold into memory-operand ALU ops.
	wtbl := g.arrayI32(tableBytes/4+64, func(i int) uint32 { return g.rand() >> 8 })
	wBase := b.Const(ir.Ptr, int64(wtbl))
	wMask := b.Const(ir.I32, int64(tableBytes/4-1))
	acc := b.Const(ir.I32, 0x12345)
	mask := b.Const(ir.I32, int64(tableBytes-1))
	// One temporary per hammock, as real if-converted code has: the
	// diamonds stay independent of each other within an iteration.
	xs := make([]ir.VReg, nDiamonds)
	for d := range xs {
		xs[d] = b.Const(ir.I32, int64(d))
	}
	prob := 0.5
	if predictable {
		prob = 0.9
	}
	g.loop(iters, func(i ir.VReg) {
		for u := 0; u < unroll; u++ {
			// Scramble the loop counter so the probe sequence walks
			// the whole table aperiodically: the branch outcome
			// stream is as random as the table contents, which no
			// predictor's tables can capture.
			h := b.Bin(ir.Mul, ir.I32, i, b.Const(ir.I32, 0x9E3779B1-1<<32))
			if u > 0 {
				h = b.Bin(ir.Xor, ir.I32, h, b.Const(ir.I32, int64(u)*0x45d9f3b))
			}
			h2 := b.Shift(ir.Shr, ir.I32, h, 11)
			h3 := b.Bin(ir.Xor, ir.I32, h, h2)
			idx := b.Bin(ir.And, ir.I32, h3, mask)
			bits := b.LoadByte(tBase, idx, 1, 0)
			for d := 0; d < nDiamonds; d++ {
				x := xs[d]
				bit := b.Shift(ir.Shr, ir.I32, bits, int64(d%8))
				bit1 := b.Bin(ir.And, ir.I32, bit, b.Const(ir.I32, 1))
				var c ir.VReg
				if predictable {
					// Compare against the patterned low nibble: biased.
					nib := b.Bin(ir.And, ir.I32, bits, b.Const(ir.I32, 15))
					c = b.Cmp(ir.LT, ir.I32, nib, b.Const(ir.I32, 14))
				} else {
					c = b.Cmp(ir.NE, ir.I32, bit1, b.Const(ir.I32, 0))
				}
				idxw := b.Bin(ir.And, ir.I32, h3, wMask)
				g.ifThenElse(c, prob, func() {
					wv := b.Load(ir.I32, wBase, idxw, 4, int64(d*4))
					b.Assign(x, ir.Add, ir.I32, bits, wv)
					for a := 1; a < armOps; a++ {
						b.Assign(x, ir.Add, ir.I32, x, bit)
					}
				}, func() {
					b.Assign(x, ir.Xor, ir.I32, bits, h3)
					for a := 1; a < armOps; a++ {
						b.Assign(x, ir.Xor, ir.I32, x, bits)
					}
				})
				b.Assign(acc, ir.Xor, ir.I32, acc, x)
			}
			g.mix32(acc, bits)
		}
	})
	return acc
}

// streamKernel is the data-parallel archetype (lbm/milc): one or more
// vectorizable passes of c[i] = a[i]*k1 + b[i]*k2 (optionally a 3-point
// stencil) over f32 arrays, followed by an integer checksum reduction. On
// feature sets without SIMD the loops run in their scalarized form.
func streamKernel(g *gen, elems int, passes int, stencil bool) ir.VReg {
	b := g.b
	mkArr := func() uint64 {
		return g.arrayF32(elems+2, func(i int) float32 {
			return float32(g.rand()%1000) / 64
		})
	}
	aArr, bArr, cArr := mkArr(), mkArr(), mkArr()
	// +4 so stencil's i-1 access stays in bounds.
	pa := b.Const(ir.Ptr, int64(aArr)+4)
	pb := b.Const(ir.Ptr, int64(bArr)+4)
	pc := b.Const(ir.Ptr, int64(cArr)+4)
	k1 := b.FConst(ir.F32, 1.25)
	k2 := b.FConst(ir.F32, 0.75)
	for p := 0; p < passes; p++ {
		g.vecLoop(int64(elems), func(i ir.VReg) {
			var av ir.VReg
			if stencil {
				l := b.Load(ir.F32, pa, i, 4, -4)
				r := b.Load(ir.F32, pa, i, 4, 4)
				av = b.Bin(ir.FAdd, ir.F32, l, r)
			} else {
				av = b.Load(ir.F32, pa, i, 4, 0)
			}
			bv := b.Load(ir.F32, pb, i, 4, 0)
			t1 := b.Bin(ir.FMul, ir.F32, av, k1)
			t2 := b.Bin(ir.FMul, ir.F32, bv, k2)
			s := b.Bin(ir.FAdd, ir.F32, t1, t2)
			b.Store(ir.F32, s, pc, i, 4, 0)
		})
		// Feed the result back for the next pass.
		pa, pc = pc, pa
	}
	// Integer checksum over result bits (order-independent across
	// vector/scalar compilation).
	acc := b.Const(ir.I32, 0)
	src := pa // last-written array
	g.loop(int64(elems), func(i ir.VReg) {
		w := b.Load(ir.I32, src, i, 4, 0)
		b.Assign(acc, ir.Xor, ir.I32, acc, w)
	})
	return acc
}

// chaseKernel is the pointer-chasing archetype (mcf): traverse a randomized
// cycle of nodes whose layout depends on the pointer size — 64-bit pointers
// inflate the node stride and the cache footprint, exactly the effect the
// paper attributes to 32-bit feature sets' cache efficiency. A biased
// diamond conditionally updates node costs.
func chaseKernel(g *gen, nodes int, steps int64, updateProb float64) ir.VReg {
	b := g.b
	pb := g.ptrBytes()
	// Node: 4 pointers + 2 int32 fields, padded: 32B at 32-bit pointers,
	// 64B at 64-bit.
	stride := uint64(32)
	costOff := int64(4 * pb)
	if pb == 8 {
		stride = 64
	}
	base := g.alloc(uint64(nodes)*stride, 64)
	perm := make([]int, nodes)
	for i := range perm {
		perm[i] = i
	}
	for i := nodes - 1; i > 0; i-- {
		j := int(g.rand()) % (i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	// Chain the permutation into one cycle: node perm[i] -> perm[i+1].
	for i := 0; i < nodes; i++ {
		from := base + uint64(perm[i])*stride
		to := base + uint64(perm[(i+1)%nodes])*stride
		g.write(from, pb, to)
		g.write(from+uint64(costOff), 4, uint64(g.rand()%1000))
		g.write(from+uint64(costOff)+4, 4, uint64(g.rand()%256))
	}
	p := b.Const(ir.Ptr, int64(base))
	acc := b.Const(ir.I32, 0)
	limit := b.Const(ir.I32, 800)
	one := b.Const(ir.I32, 1)
	g.loop(steps, func(i ir.VReg) {
		cost := b.Load(ir.I32, p, ir.NoReg, 1, costOff)
		cap_ := b.Load(ir.I32, p, ir.NoReg, 1, costOff+4)
		c := b.Cmp(ir.LT, ir.I32, cost, limit)
		g.ifThenElse(c, updateProb, func() {
			nc := b.Bin(ir.Add, ir.I32, cost, one)
			b.Store(ir.I32, nc, p, ir.NoReg, 1, costOff)
			b.Assign(acc, ir.Add, ir.I32, acc, cap_)
		}, nil)
		g.mix32(acc, cost)
		nxt := b.Load(ir.Ptr, p, ir.NoReg, 1, 0)
		b.Copy(p, nxt)
	})
	return acc
}

// scanKernel is the sequential record-scan archetype (mcf's arc scan, parts
// of astar): walk a struct array with multi-field accesses that fold into
// x86 complex addressing, and a biased branch.
func scanKernel(g *gen, records int, iters int64, fieldOps int) ir.VReg {
	b := g.b
	const stride = 32
	base := g.alloc(uint64(records)*stride, 64)
	for i := 0; i < records; i++ {
		for f := 0; f < 4; f++ {
			g.write(base+uint64(i)*stride+uint64(f)*4, 4, uint64(g.rand()%4096))
		}
	}
	pbase := b.Const(ir.Ptr, int64(base))
	acc := b.Const(ir.I32, 0)
	mask := b.Const(ir.I32, int64(records-1))
	g.loop(iters, func(i ir.VReg) {
		ridx := b.Bin(ir.And, ir.I32, i, mask)
		off := b.Bin(ir.Mul, ir.I32, ridx, b.Const(ir.I32, stride))
		for f := 0; f < fieldOps; f++ {
			v := b.Load(ir.I32, pbase, off, 1, int64((f%4)*4))
			b.Assign(acc, ir.Add, ir.I32, acc, v)
		}
		thr := b.Const(ir.I32, 3500)
		v0 := b.Load(ir.I32, pbase, off, 1, 0)
		c := b.Cmp(ir.LT, ir.I32, v0, thr)
		g.ifThenElse(c, 0.85, func() {
			nv := b.Bin(ir.Xor, ir.I32, v0, acc)
			b.Store(ir.I32, nv, pbase, off, 1, 12)
		}, nil)
	})
	return acc
}

// gridKernel is the astar archetype: evaluate grid-cell neighborhoods with
// CMOV minima and a moderately-biased improvement branch.
func gridKernel(g *gen, side int, iters int64) ir.VReg {
	b := g.b
	n := side * side
	grid := g.arrayI32(n, func(i int) uint32 { return g.rand() % 10000 })
	gBase := b.Const(ir.Ptr, int64(grid))
	acc := b.Const(ir.I32, 0)
	mask := b.Const(ir.I32, int64(n-1))
	rowOff := int64(side * 4)
	g.loop(iters, func(i ir.VReg) {
		h := b.Bin(ir.Mul, ir.I32, i, b.Const(ir.I32, 2654435761-1<<32))
		idx0 := b.Bin(ir.And, ir.I32, h, mask)
		// Clamp away from edges so neighbor loads stay in bounds.
		idx := b.Bin(ir.Or, ir.I32, idx0, b.Const(ir.I32, int64(side+1)))
		idx2 := b.Bin(ir.And, ir.I32, idx, b.Const(ir.I32, int64(n-side-2)))
		cur := b.Load(ir.I32, gBase, idx2, 4, 0)
		left := b.Load(ir.I32, gBase, idx2, 4, -4)
		right := b.Load(ir.I32, gBase, idx2, 4, 4)
		up := b.Load(ir.I32, gBase, idx2, 4, -rowOff)
		down := b.Load(ir.I32, gBase, idx2, 4, rowOff)
		m1c := b.Cmp(ir.LE, ir.I32, left, right)
		m1 := b.Select(ir.I32, m1c, left, right)
		m2c := b.Cmp(ir.LE, ir.I32, up, down)
		m2 := b.Select(ir.I32, m2c, up, down)
		mc := b.Cmp(ir.LE, ir.I32, m1, m2)
		best := b.Select(ir.I32, mc, m1, m2)
		inc := b.Bin(ir.Add, ir.I32, best, b.Const(ir.I32, 37))
		better := b.Cmp(ir.LT, ir.I32, inc, cur)
		g.ifThenElse(better, 0.3, func() {
			b.Store(ir.I32, inc, gBase, idx2, 4, 0)
			g.mix32(acc, inc)
		}, func() {
			b.Assign(acc, ir.Add, ir.I32, acc, cur)
		})
	})
	return acc
}

// bitPackKernel is the bzip2 bit-packing archetype: long shift/mask chains
// with good ILP and little memory traffic.
func bitPackKernel(g *gen, iters int64) ir.VReg {
	b := g.b
	src := g.arrayI32(256, func(i int) uint32 { return g.rand() })
	sBase := b.Const(ir.Ptr, int64(src))
	acc := b.Const(ir.I32, 0)
	mask := b.Const(ir.I32, 255)
	g.loop(iters, func(i ir.VReg) {
		idx := b.Bin(ir.And, ir.I32, i, mask)
		v := b.Load(ir.I32, sBase, idx, 4, 0)
		a1 := b.Shift(ir.Shl, ir.I32, v, 7)
		a2 := b.Shift(ir.Shr, ir.I32, v, 11)
		a3 := b.Bin(ir.Xor, ir.I32, a1, a2)
		a4 := b.Shift(ir.Shl, ir.I32, a3, 3)
		a5 := b.Bin(ir.Or, ir.I32, a3, a4)
		a6 := b.Shift(ir.Shr, ir.I32, a5, 5)
		a7 := b.Bin(ir.Add, ir.I32, a5, a6)
		b.Assign(acc, ir.Xor, ir.I32, acc, a7)
	})
	return acc
}

// fp64Kernel is a scalar double-precision kernel (lbm's collision step):
// multiply-add chains with an occasional divide; not vectorizable in this
// implementation's SSE model.
func fp64Kernel(g *gen, elems int, iters int64) ir.VReg {
	b := g.b
	arr := g.arrayF64(elems, func(i int) float64 { return 1.0 + float64(g.rand()%1000)/256 })
	base := b.Const(ir.Ptr, int64(arr))
	facc := b.FConst(ir.F64, 1.0)
	k1 := b.FConst(ir.F64, 0.98)
	k2 := b.FConst(ir.F64, 1.02)
	mask := b.Const(ir.I32, int64(elems-1))
	g.loop(iters, func(i ir.VReg) {
		idx := b.Bin(ir.And, ir.I32, i, mask)
		v := b.Load(ir.F64, base, idx, 8, 0)
		t1 := b.Bin(ir.FMul, ir.F64, v, k1)
		t2 := b.Bin(ir.FAdd, ir.F64, t1, k2)
		t3 := b.Bin(ir.FDiv, ir.F64, t2, k2)
		b.Assign(facc, ir.FAdd, ir.F64, facc, t3)
		b.Store(ir.F64, t3, base, idx, 8, 0)
	})
	// Quantize the deterministic scalar F64 sum into the i32 checksum.
	return b.Unary(ir.FPToSI, ir.I32, facc)
}
