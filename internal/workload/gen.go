package workload

import (
	"fmt"
	"math"

	"compisa/internal/code"
	"compisa/internal/ir"
	"compisa/internal/mem"
)

// OverflowError reports a region generator exhausting the data region.
// It is returned (not panicked) from Region.Build so a single oversized
// generator degrades that one evaluation instead of killing the process.
type OverflowError struct {
	// Next is the allocation cursor after the failed request; Limit is
	// the end of the data region.
	Next, Limit uint64
}

func (e *OverflowError) Error() string {
	return fmt.Sprintf("workload: data region overflow (cursor %#x past limit %#x)", e.Next, e.Limit)
}

// gen is the common scaffolding for region generators: an IR builder, a
// memory image, a bump allocator for data placement, and a deterministic
// PRNG for data initialization.
type gen struct {
	// b drops its instructions when only the image is built
	// (Region.Image); everything else runs as in a full build.
	b *ir.Builder
	// m is nil when only the code is built (Region.Code): writes are
	// dropped, everything else runs as in a full build.
	m     *mem.Memory
	width int
	next  uint64
	state uint32
	// err is the first allocation failure; it makes Build fail instead of
	// panicking while letting the generator body run to completion.
	err error
}

// newGen starts a generator that builds the region's IR if buildIR is set
// and its memory image if image is set.
func newGen(name string, width int, seed uint32, buildIR, image bool) *gen {
	newBuilder := ir.NewBuilder
	if !buildIR {
		newBuilder = ir.NewDiscardBuilder
	}
	g := &gen{
		b:     newBuilder(name),
		width: width,
		next:  uint64(code.DataBase),
		state: seed*2654435761 + 1,
	}
	if image {
		g.m = mem.New()
	}
	return g
}

// write stores the size-byte value v at addr in the memory image, if one
// is being built.
func (g *gen) write(addr uint64, size int, v uint64) {
	if g.m != nil {
		g.m.Write(addr, size, v)
	}
}

// rand returns the next PRNG value.
func (g *gen) rand() uint32 {
	g.state = g.state*1664525 + 1013904223
	return g.state
}

// alloc reserves n bytes with the given alignment and returns the address.
// On overflow it records a sticky OverflowError (surfaced by finish) and
// hands back the region base so the generator body can complete harmlessly.
func (g *gen) alloc(n uint64, align uint64) uint64 {
	g.next = (g.next + align - 1) &^ (align - 1)
	a := g.next
	g.next += n
	if g.next >= uint64(code.DataLimit) {
		if g.err == nil {
			g.err = &OverflowError{Next: g.next, Limit: uint64(code.DataLimit)}
		}
		g.next = a // stop advancing; the build fails at finish
		return uint64(code.DataBase)
	}
	return a
}

// arrayI32 allocates and fills an int32 array.
func (g *gen) arrayI32(n int, f func(i int) uint32) uint64 {
	a := g.alloc(uint64(n)*4, 64)
	for i := 0; i < n; i++ {
		g.write(a+uint64(i)*4, 4, uint64(f(i)))
	}
	return a
}

// arrayF32 allocates and fills a float32 array.
func (g *gen) arrayF32(n int, f func(i int) float32) uint64 {
	a := g.alloc(uint64(n)*4, 64)
	for i := 0; i < n; i++ {
		g.write(a+uint64(i)*4, 4, uint64(math.Float32bits(f(i))))
	}
	return a
}

// arrayF64 allocates and fills a float64 array.
func (g *gen) arrayF64(n int, f func(i int) float64) uint64 {
	a := g.alloc(uint64(n)*8, 64)
	for i := 0; i < n; i++ {
		g.write(a+uint64(i)*8, 8, math.Float64bits(f(i)))
	}
	return a
}

// bytesArr allocates and fills a byte array.
func (g *gen) bytesArr(n int, f func(i int) byte) uint64 {
	a := g.alloc(uint64(n), 64)
	for i := 0; i < n; i++ {
		b := f(i)
		if g.m != nil {
			g.m.Store8(a+uint64(i), b)
		}
	}
	return a
}

// ptrBytes is the pointer size of the target.
func (g *gen) ptrBytes() int { return g.width / 8 }

// finish returns the generated function and memory, or the first
// allocation error recorded during generation.
func (g *gen) finish(ret ir.VReg) (*ir.Func, *mem.Memory, error) {
	g.b.Ret(ret)
	if g.err != nil {
		return nil, nil, g.err
	}
	return g.b.F, g.m, nil
}

// loop emits `for (i = 0; i < n; i++) { body(i) }` with the standard
// header/body/exit shape; the builder continues in the exit block. The
// returned block is the loop body (for vectorization annotations).
func (g *gen) loop(n int64, body func(i ir.VReg)) *ir.Block {
	b := g.b
	header := b.Block("header")
	bodyBlk := b.Block("body")
	exit := b.Block("exit")
	i := b.Const(ir.I32, 0)
	lim := b.Const(ir.I32, n)
	b.Br(header)
	b.SetBlock(header)
	c := b.Cmp(ir.LT, ir.I32, i, lim)
	b.CondBr(c, bodyBlk, exit, loopProb(n))
	b.SetBlock(bodyBlk)
	body(i)
	b.AddImm(i, i, ir.I32, 1)
	b.Br(header)
	b.SetBlock(exit)
	return bodyBlk
}

// vecLoop emits a canonical counted loop annotated as vectorizable; its body
// must stay element-wise (loads/stores indexed by i with scale 4).
func (g *gen) vecLoop(n int64, body func(i ir.VReg)) {
	b := g.b
	header := b.Block("vheader")
	bodyBlk := b.Block("vbody")
	exit := b.Block("vexit")
	i := b.Const(ir.I32, 0)
	lim := b.Const(ir.I32, n)
	b.Br(header)
	b.SetBlock(header)
	c := b.Cmp(ir.LT, ir.I32, i, lim)
	b.CondBr(c, bodyBlk, exit, loopProb(n))
	b.SetBlock(bodyBlk)
	body(i)
	b.AddImm(i, i, ir.I32, 1)
	b.Br(header)
	bodyBlk.VecLoop = &ir.VecLoopInfo{IndVar: i, Limit: lim, Lanes: 4}
	b.SetBlock(exit)
}

func loopProb(n int64) float64 {
	if n <= 1 {
		return 0.5
	}
	return float64(n-1) / float64(n)
}

// ifThenElse emits a diamond: if (cond) { then() } else { otherwise() }.
// prob is the probability cond holds. Either arm may be nil (triangle).
// The builder continues in the join block.
func (g *gen) ifThenElse(cond ir.VReg, prob float64, then, otherwise func()) {
	b := g.b
	tArm := b.Block("then")
	var fArm *ir.Block
	join := b.Block("join")
	if otherwise != nil {
		fArm = b.Block("else")
		b.CondBr(cond, tArm, fArm, prob)
	} else {
		b.CondBr(cond, tArm, join, prob)
	}
	b.SetBlock(tArm)
	if then != nil {
		then()
	}
	b.Br(join)
	if otherwise != nil {
		b.SetBlock(fArm)
		otherwise()
		b.Br(join)
	}
	b.SetBlock(join)
}

// mix32 folds v into acc with a cheap integer hash step.
func (g *gen) mix32(acc, v ir.VReg) {
	b := g.b
	b.Assign(acc, ir.Xor, ir.I32, acc, v)
	s := b.Shift(ir.Shl, ir.I32, acc, 5)
	b.Assign(acc, ir.Add, ir.I32, acc, s)
}
