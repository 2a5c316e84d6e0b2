package compiler

import (
	"fmt"
	"math"

	"compisa/internal/code"
	"compisa/internal/ir"
	"compisa/internal/isa"
)

func f32bits(f float32) uint32 { return math.Float32bits(f) }
func f64bits(f float64) uint64 { return math.Float64bits(f) }

// minstr returns an mInstr with all register fields cleared to noVR.
func minstr(op code.Op, sz uint8) mInstr {
	return mInstr{Op: op, Sz: sz, Dst: noVR, Src1: noVR, Src2: noVR,
		MemBase: noVR, MemIndex: noVR, Pred: noVR}
}

// memOp is a machine-level memory operand under construction.
type memOp struct {
	base  vreg // noVR = absolute
	index vreg
	scale uint8
	disp  int32
}

type poolKey struct {
	bits uint64
	size uint8
}

// foldCand tracks an emitted load that may still be folded into a following
// ALU instruction as an x86 memory operand.
type foldCand struct {
	block    *mBlock
	pos      int // index of the LD in block.instrs
	mem      memOp
	sz       uint8
	storeGen int
}

type iselCtx struct {
	fs        isa.FeatureSet
	irf       *ir.Func
	mf        *mFunc
	cur       *mBlock
	noFolding bool

	blockMap map[*ir.Block]*mBlock
	reg      []vreg // ir vreg -> machine vreg (scalar)
	pairLo   []vreg // ir I64 vreg -> machine low half (32-bit targets)
	pairHi   []vreg

	useCount  []int
	defCount  []int
	constOnce []bool
	constVal  []int64

	pool     map[poolKey]int32 // -> absolute address
	poolNext int32

	// pending compare fusion: ir bool vreg -> defining Cmp/FCmp instr.
	pending map[ir.VReg]*ir.Instr

	// load-folding bookkeeping (per emission stream).
	folds    map[ir.VReg]foldCand
	lastDef  map[vreg]int // machine vreg -> last def position in cur block
	storeGen int
}

func (c *iselCtx) is64Pair(v ir.VReg) bool {
	return c.fs.Width == 32 && c.irf.TypeOf(v) == ir.I64
}

// szOf returns the machine operand size for a scalar IR type.
func (c *iselCtx) szOf(t ir.Type) uint8 {
	switch t {
	case ir.I32, ir.F32:
		return 4
	case ir.Ptr:
		return uint8(c.fs.Width / 8)
	case ir.V4F32, ir.V4I32:
		return 16
	default:
		return 8
	}
}

func (c *iselCtx) mapScalar(v ir.VReg) vreg {
	if c.reg[v] == noVR {
		c.reg[v] = c.mf.newVReg(c.irf.TypeOf(v).IsFloat())
	}
	return c.reg[v]
}

func (c *iselCtx) mapPair(v ir.VReg) (lo, hi vreg) {
	if c.pairLo[v] == noVR {
		c.pairLo[v] = c.mf.newVReg(false)
		c.pairHi[v] = c.mf.newVReg(false)
	}
	return c.pairLo[v], c.pairHi[v]
}

func (c *iselCtx) emit(in mInstr) int {
	if d, _ := in.def(); d != noVR {
		c.lastDef[d] = len(c.cur.instrs)
	}
	switch in.Op {
	case code.ST, code.FST, code.VST:
		c.storeGen++
	}
	c.cur.instrs = append(c.cur.instrs, in)
	return len(c.cur.instrs) - 1
}

func (c *iselCtx) movRR(dst, src vreg, sz uint8, fp bool) {
	op := code.MOV
	if fp {
		op = code.FMOV
	}
	in := minstr(op, sz)
	in.Dst, in.Src1 = dst, src
	c.emit(in)
}

func (c *iselCtx) movImm(dst vreg, imm int64, sz uint8) {
	in := minstr(code.MOV, sz)
	in.Dst = dst
	in.HasImm, in.Imm = true, imm
	c.emit(in)
}

func (c *iselCtx) setMem(in *mInstr, m memOp) {
	in.HasMem = true
	in.MemBase, in.MemIndex, in.Scale, in.Disp = m.base, m.index, m.scale, m.disp
}

// poolAddr interns an FP constant in the pool and returns its address.
func (c *iselCtx) poolAddr(bits uint64, size uint8) int32 {
	k := poolKey{bits, size}
	if a, ok := c.pool[k]; ok {
		return a
	}
	a := code.PoolBase + c.poolNext
	c.poolNext += 8
	c.pool[k] = a
	c.mf.pool = append(c.mf.pool, code.PoolConst{Addr: uint32(a), Size: size, Bits: bits})
	return a
}

// legalMem lowers an IR memory reference to a machine operand, legalizing
// scales that x86 cannot encode.
func (c *iselCtx) legalMem(mr ir.MemRef) memOp {
	m := memOp{base: c.mapIndexable(mr.Base), index: noVR, scale: 1, disp: int32(mr.Disp)}
	if mr.Index != ir.NoReg {
		idx := c.mapIndexable(mr.Index)
		switch mr.Scale {
		case 1, 2, 4, 8:
			m.index, m.scale = idx, uint8(mr.Scale)
		default:
			t := c.mf.newVReg(false)
			c.movRR(t, idx, uint8(c.fs.Width/8), false)
			mul := minstr(code.IMUL, uint8(c.fs.Width/8))
			mul.Dst, mul.Src1 = t, t
			mul.HasImm, mul.Imm = true, int64(mr.Scale)
			c.emit(mul)
			m.index, m.scale = t, 1
		}
	}
	return m
}

// mapIndexable maps an address-forming register; for 64-bit pairs on 32-bit
// targets the low half carries the address.
func (c *iselCtx) mapIndexable(v ir.VReg) vreg {
	if c.is64Pair(v) {
		lo, _ := c.mapPair(v)
		return lo
	}
	return c.mapScalar(v)
}

// irCC maps an IR condition to the x86 CC for an integer compare.
func irCC(cc ir.Cond) code.CC {
	switch cc {
	case ir.EQ:
		return code.CCEQ
	case ir.NE:
		return code.CCNE
	case ir.LT:
		return code.CCLT
	case ir.LE:
		return code.CCLE
	case ir.GT:
		return code.CCGT
	case ir.GE:
		return code.CCGE
	case ir.ULT:
		return code.CCB
	case ir.ULE:
		return code.CCBE
	case ir.UGT:
		return code.CCA
	default:
		return code.CCAE
	}
}

// fpCC maps an IR condition to the x86 CC after UCOMISS/SD, which sets the
// unsigned-style flags.
func fpCC(cc ir.Cond) code.CC {
	switch cc {
	case ir.EQ:
		return code.CCEQ
	case ir.NE:
		return code.CCNE
	case ir.LT, ir.ULT:
		return code.CCB
	case ir.LE, ir.ULE:
		return code.CCBE
	case ir.GT, ir.UGT:
		return code.CCA
	default:
		return code.CCAE
	}
}

// runISel lowers f to machine IR for the context's feature set.
func runISel(irf *ir.Func, fs isa.FeatureSet, mf *mFunc, noFolding bool) error {
	c := &iselCtx{
		fs: fs, irf: irf, mf: mf, noFolding: noFolding,
		blockMap:  map[*ir.Block]*mBlock{},
		reg:       make([]vreg, irf.NumVRegs()),
		pairLo:    make([]vreg, irf.NumVRegs()),
		pairHi:    make([]vreg, irf.NumVRegs()),
		useCount:  make([]int, irf.NumVRegs()),
		defCount:  make([]int, irf.NumVRegs()),
		constOnce: make([]bool, irf.NumVRegs()),
		constVal:  make([]int64, irf.NumVRegs()),
		pool:      map[poolKey]int32{},
		pending:   map[ir.VReg]*ir.Instr{},
		folds:     map[ir.VReg]foldCand{},
		lastDef:   map[vreg]int{},
	}
	for i := range c.reg {
		c.reg[i], c.pairLo[i], c.pairHi[i] = noVR, noVR, noVR
	}
	// Usage pre-pass.
	var uses []ir.VReg
	for _, b := range irf.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			uses = in.Uses(uses[:0])
			for _, u := range uses {
				c.useCount[u]++
			}
			if d := in.Def(); d != ir.NoReg {
				c.defCount[d]++
				// Kept only for a vreg with a single def, which is this one.
				c.constOnce[d] = in.Op == ir.Const
				if in.Op == ir.Const {
					c.constVal[d] = in.Imm
				}
			}
		}
	}
	for v, n := range c.defCount {
		if n != 1 {
			c.constOnce[v] = false
		}
	}
	// Create machine blocks in IR layout order.
	for _, b := range irf.Blocks {
		c.blockMap[b] = mf.newBlock(b.Name)
	}
	for _, b := range irf.Blocks {
		c.cur = c.blockMap[b]
		// Lowering is about one machine instruction per IR instruction.
		c.cur.instrs = make([]mInstr, 0, len(b.Instrs))
		clear(c.folds)
		clear(c.lastDef)
		if err := c.lowerBlock(b); err != nil {
			return err
		}
	}
	return nil
}

// fusible reports whether the Cmp/FCmp at index pos of block b can be
// deferred to its single consumer in the same block (CondBr terminator or
// Select) without its operands being redefined in between.
func (c *iselCtx) fusible(b *ir.Block, pos int) bool {
	in := &b.Instrs[pos]
	d := in.Dst
	if c.useCount[d] != 1 || c.defCount[d] != 1 {
		return false
	}
	for j := pos + 1; j < len(b.Instrs); j++ {
		nx := &b.Instrs[j]
		consumes := false
		switch nx.Op {
		case ir.CondBr:
			consumes = nx.C == d
		case ir.Select:
			consumes = nx.C == d
		default:
			var us []ir.VReg
			us = nx.Uses(us)
			for _, u := range us {
				if u == d {
					return false // consumed by a non-fusible op
				}
			}
		}
		if consumes {
			return true
		}
		if def := nx.Def(); def != ir.NoReg && (def == in.A || def == in.B) {
			return false
		}
	}
	return false
}

func (c *iselCtx) lowerBlock(b *ir.Block) error {
	for i := range b.Instrs {
		in := &b.Instrs[i]
		switch in.Op {
		case ir.Cmp, ir.FCmp:
			if c.fusible(b, i) {
				c.pending[in.Dst] = in
				continue
			}
			cc, err := c.emitFlagProducer(in)
			if err != nil {
				return err
			}
			set := minstr(code.SETCC, 4)
			set.Dst, set.CC = c.mapScalar(in.Dst), cc
			c.emit(set)
		default:
			if err := c.lowerInstr(in); err != nil {
				return fmt.Errorf("%s/%s: %w", c.irf.Name, b.Name, err)
			}
		}
	}
	return nil
}

// condCC lowers the flag state for a condition register: either the deferred
// compare (fusion) or a TEST of the materialized boolean. It returns the CC
// meaning "condition holds".
func (c *iselCtx) condCC(cond ir.VReg) (code.CC, error) {
	if cmp, ok := c.pending[cond]; ok {
		delete(c.pending, cond)
		return c.emitFlagProducer(cmp)
	}
	t := minstr(code.TEST, 4)
	t.Src1, t.Src2 = c.mapScalar(cond), c.mapScalar(cond)
	t.KeepFlags = true
	c.emit(t)
	return code.CCNE, nil
}

// emitFlagProducer emits the compare sequence for an IR Cmp/FCmp and returns
// the CC under which the comparison holds.
func (c *iselCtx) emitFlagProducer(in *ir.Instr) (code.CC, error) {
	if in.Op == ir.FCmp {
		sz := c.szOf(c.irf.TypeOf(in.A))
		f := minstr(code.FCMP, sz)
		f.Src1, f.Src2 = c.mapScalar(in.A), c.mapScalar(in.B)
		c.emit(f)
		return fpCC(in.CC), nil
	}
	if c.fs.Width == 32 && in.Type == ir.I64 {
		return c.emitCmp64(in)
	}
	sz := c.szOf(in.Type)
	cmp := minstr(code.CMP, sz)
	cmp.Src1 = c.mapScalar(in.A)
	if c.constOnce[in.B] && fitsI32(c.constVal[in.B]) {
		cmp.HasImm, cmp.Imm = true, c.constVal[in.B]
	} else if m, ok := c.tryFold(in.B); ok {
		c.setMem(&cmp, m)
		c.mf.stats.FoldedLoads++
	} else {
		cmp.Src2 = c.mapScalar(in.B)
	}
	c.emit(cmp)
	return irCC(in.CC), nil
}

// emitCmp64 lowers a 64-bit compare on a 32-bit target using the classic
// CMP/SBB flag trick (relational) or XOR/OR (equality).
func (c *iselCtx) emitCmp64(in *ir.Instr) (code.CC, error) {
	alo, ahi := c.mapPair(in.A)
	blo, bhi := c.mapPair(in.B)
	switch in.CC {
	case ir.EQ, ir.NE:
		t1 := c.mf.newVReg(false)
		t2 := c.mf.newVReg(false)
		c.movRR(t1, alo, 4, false)
		x1 := minstr(code.XOR, 4)
		x1.Dst, x1.Src1, x1.Src2 = t1, t1, blo
		c.emit(x1)
		c.movRR(t2, ahi, 4, false)
		x2 := minstr(code.XOR, 4)
		x2.Dst, x2.Src1, x2.Src2 = t2, t2, bhi
		c.emit(x2)
		or := minstr(code.OR, 4)
		or.Dst, or.Src1, or.Src2 = t1, t1, t2
		or.KeepFlags = true
		c.emit(or)
		return irCC(in.CC), nil
	case ir.LT, ir.GE, ir.ULT, ir.UGE:
		c.emitSbbCompare(alo, ahi, blo, bhi)
		return irCC(in.CC), nil
	case ir.GT, ir.LE, ir.UGT, ir.ULE:
		// a > b  <=>  b < a; swap operands and use the mirrored CC.
		c.emitSbbCompare(blo, bhi, alo, ahi)
		switch in.CC {
		case ir.GT:
			return code.CCLT, nil
		case ir.LE:
			return code.CCGE, nil
		case ir.UGT:
			return code.CCB, nil
		default:
			return code.CCAE, nil
		}
	}
	return 0, fmt.Errorf("cmp64: unsupported condition %v", in.CC)
}

// emitSbbCompare sets flags as if comparing the 64-bit values (alo,ahi) and
// (blo,bhi): CMP lo; SBB of highs leaves SF/OF/CF valid for </unsigned-<.
func (c *iselCtx) emitSbbCompare(alo, ahi, blo, bhi vreg) {
	cmp := minstr(code.CMP, 4)
	cmp.Src1, cmp.Src2 = alo, blo
	c.emit(cmp)
	t := c.mf.newVReg(false)
	c.movRR(t, ahi, 4, false)
	sbb := minstr(code.SBB, 4)
	sbb.Dst, sbb.Src1, sbb.Src2 = t, t, bhi
	sbb.KeepFlags = true
	c.emit(sbb)
}

func fitsI32(v int64) bool { return v >= -(1<<31) && v < 1<<31 }

// tryFold attempts to turn the (single-use, same-block, unclobbered) load
// that defined v into a memory operand, removing the emitted LD.
func (c *iselCtx) tryFold(v ir.VReg) (memOp, bool) {
	if c.fs.Complexity != isa.FullX86 || c.noFolding {
		return memOp{}, false
	}
	f, ok := c.folds[v]
	if !ok || f.block != c.cur || c.useCount[v] != 1 {
		return memOp{}, false
	}
	delete(c.folds, v)
	if f.storeGen != c.storeGen {
		return memOp{}, false // a store may alias the folded load
	}
	for _, r := range []vreg{f.mem.base, f.mem.index} {
		if r == noVR {
			continue
		}
		if p, ok := c.lastDef[r]; ok && p > f.pos {
			return memOp{}, false // address register redefined since
		}
	}
	c.cur.instrs[f.pos] = minstr(code.NOP, 0)
	return f.mem, true
}

// binArgs resolves the second operand of a binary op: immediate, foldable
// memory operand, or register.
type binSrc struct {
	reg    vreg
	imm    int64
	hasImm bool
	mem    memOp
	hasMem bool
}

func (c *iselCtx) resolveSrc(b ir.VReg, allowImm bool) binSrc {
	if allowImm && c.constOnce[b] && fitsI32(c.constVal[b]) {
		return binSrc{reg: noVR, hasImm: true, imm: c.constVal[b]}
	}
	if m, ok := c.tryFold(b); ok {
		c.mf.stats.FoldedLoads++
		return binSrc{reg: noVR, hasMem: true, mem: m}
	}
	return binSrc{reg: c.mapScalar(b)}
}

// emitBinop emits a two-address ALU op dst = a OP src.
func (c *iselCtx) emitBinop(op code.Op, sz uint8, fp bool, dst, a vreg, src binSrc, commutative bool) {
	apply := func(target vreg) {
		in := minstr(op, sz)
		in.Dst, in.Src1 = target, target
		switch {
		case src.hasImm:
			in.HasImm, in.Imm = true, src.imm
		case src.hasMem:
			c.setMem(&in, src.mem)
		default:
			in.Src2 = src.reg
		}
		c.emit(in)
	}
	switch {
	case dst == a:
		apply(dst)
	case !src.hasImm && !src.hasMem && dst == src.reg && commutative:
		// dst = a OP dst  ==  dst OP= a for commutative ops.
		in := minstr(op, sz)
		in.Dst, in.Src1, in.Src2 = dst, dst, a
		c.emit(in)
	case !src.hasImm && !src.hasMem && dst == src.reg:
		t := c.mf.newVReg(fp)
		c.movRR(t, a, sz, fp)
		in := minstr(op, sz)
		in.Dst, in.Src1, in.Src2 = t, t, src.reg
		c.emit(in)
		c.movRR(dst, t, sz, fp)
	default:
		c.movRR(dst, a, sz, fp)
		apply(dst)
	}
}

func (c *iselCtx) lowerInstr(in *ir.Instr) error {
	switch in.Op {
	case ir.Nop:
		return nil
	case ir.Const:
		return c.lowerConst(in)
	case ir.FConst:
		return c.lowerFConst(in)
	case ir.Copy:
		return c.lowerCopy(in)
	case ir.Add, ir.Sub, ir.Mul, ir.And, ir.Or, ir.Xor:
		return c.lowerIntBin(in)
	case ir.Shl, ir.Shr, ir.Sar:
		return c.lowerShift(in)
	case ir.FAdd, ir.FSub, ir.FMul, ir.FDiv:
		return c.lowerFPBin(in)
	case ir.SIToFP:
		if c.irf.TypeOf(in.A) != ir.I32 {
			return fmt.Errorf("sitofp: only i32 sources are supported")
		}
		cv := minstr(code.CVTIF, c.szOf(in.Type))
		cv.Dst, cv.Src1 = c.mapScalar(in.Dst), c.mapScalar(in.A)
		c.emit(cv)
		return nil
	case ir.FPToSI:
		if in.Type != ir.I32 {
			return fmt.Errorf("fptosi: only i32 destinations are supported")
		}
		cv := minstr(code.CVTFI, c.szOf(c.irf.TypeOf(in.A)))
		cv.Dst, cv.Src1 = c.mapScalar(in.Dst), c.mapScalar(in.A)
		c.emit(cv)
		return nil
	case ir.Trunc:
		if c.is64Pair(in.A) {
			lo, _ := c.mapPair(in.A)
			c.movRR(c.mapScalar(in.Dst), lo, 4, false)
		} else {
			c.movRR(c.mapScalar(in.Dst), c.mapScalar(in.A), 4, false)
		}
		return nil
	case ir.Ext:
		return c.lowerExt(in)
	case ir.Splat:
		if c.irf.TypeOf(in.A) != ir.F32 {
			return fmt.Errorf("splat: only f32 sources are supported")
		}
		sp := minstr(code.VSPLAT, 16)
		sp.Dst, sp.Src1 = c.mapScalar(in.Dst), c.mapScalar(in.A)
		c.emit(sp)
		return nil
	case ir.VReduce:
		r := minstr(code.VRSUM, 16)
		r.Dst, r.Src1 = c.mapScalar(in.Dst), c.mapScalar(in.A)
		c.emit(r)
		return nil
	case ir.Load:
		return c.lowerLoad(in)
	case ir.Store:
		return c.lowerStore(in)
	case ir.Select:
		return c.lowerSelect(in)
	case ir.Br:
		c.cur.term = mTerm{Kind: termJmp, Taken: c.blockMap[in.Succs[0]]}
		return nil
	case ir.CondBr:
		cc, err := c.condCC(in.C)
		if err != nil {
			return err
		}
		c.cur.term = mTerm{Kind: termJcc, CC: cc,
			Taken: c.blockMap[in.Succs[0]], Fall: c.blockMap[in.Succs[1]],
			Prob: float32(in.Prob)}
		return nil
	case ir.Ret:
		t := mTerm{Kind: termRet, Ret: noVR}
		if in.A != ir.NoReg {
			if c.is64Pair(in.A) {
				lo, _ := c.mapPair(in.A)
				t.Ret = lo
			} else {
				t.Ret = c.mapScalar(in.A)
			}
		}
		c.cur.term = t
		return nil
	}
	return fmt.Errorf("isel: unhandled IR op %v", in.Op)
}

func (c *iselCtx) lowerConst(in *ir.Instr) error {
	if c.is64Pair(in.Dst) {
		lo, hi := c.mapPair(in.Dst)
		c.movImm(lo, int64(uint32(uint64(in.Imm))), 4)
		c.movImm(hi, int64(uint32(uint64(in.Imm)>>32)), 4)
		return nil
	}
	c.movImm(c.mapScalar(in.Dst), in.Imm, c.szOf(in.Type))
	return nil
}

func (c *iselCtx) lowerFConst(in *ir.Instr) error {
	var bits uint64
	var sz uint8
	if in.Type == ir.F32 {
		bits = uint64(f32bits(float32(in.FImm)))
		sz = 4
	} else {
		bits = f64bits(in.FImm)
		sz = 8
	}
	addr := c.poolAddr(bits, sz)
	ld := minstr(code.FLD, sz)
	ld.Dst = c.mapScalar(in.Dst)
	c.setMem(&ld, memOp{base: noVR, index: noVR, scale: 1, disp: addr})
	c.emit(ld)
	return nil
}

func (c *iselCtx) lowerCopy(in *ir.Instr) error {
	if c.is64Pair(in.Dst) {
		dlo, dhi := c.mapPair(in.Dst)
		slo, shi := c.mapPair(in.A)
		c.movRR(dlo, slo, 4, false)
		c.movRR(dhi, shi, 4, false)
		return nil
	}
	t := in.Type
	c.movRR(c.mapScalar(in.Dst), c.mapScalar(in.A), c.szOf(t), t.IsFloat())
	return nil
}

var intOpFor = map[ir.Op]code.Op{
	ir.Add: code.ADD, ir.Sub: code.SUB, ir.Mul: code.IMUL,
	ir.And: code.AND, ir.Or: code.OR, ir.Xor: code.XOR,
}

func (c *iselCtx) lowerIntBin(in *ir.Instr) error {
	op := intOpFor[in.Op]
	commutative := in.Op != ir.Sub
	if c.fs.Width == 32 && in.Type == ir.I64 {
		return c.lowerIntBin64(in)
	}
	if in.Type.IsVector() {
		var vop code.Op
		switch in.Op {
		case ir.Add:
			vop = code.VADDI
		case ir.Sub:
			vop = code.VSUBI
		case ir.Mul:
			vop = code.VMULI
		default:
			return fmt.Errorf("vector %v unsupported", in.Op)
		}
		src := c.resolveSrc(in.B, false)
		c.emitBinop(vop, 16, true, c.mapScalar(in.Dst), c.mapScalar(in.A), src, in.Op != ir.Sub)
		return nil
	}
	sz := c.szOf(in.Type)
	src := c.resolveSrc(in.B, true)
	c.emitBinop(op, sz, false, c.mapScalar(in.Dst), c.mapScalar(in.A), src, commutative)
	return nil
}

// lowerIntBin64 expands a 64-bit integer op into 32-bit pair arithmetic.
func (c *iselCtx) lowerIntBin64(in *ir.Instr) error {
	dlo, dhi := c.mapPair(in.Dst)
	alo, ahi := c.mapPair(in.A)
	blo, bhi := c.mapPair(in.B)
	emitPairALU := func(loOp, hiOp code.Op) {
		// Compute into temporaries when the destination aliases the
		// second source; the common Assign(acc, op, acc, x) pattern
		// (dst == a) stays in place.
		tlo, thi := dlo, dhi
		if dlo == blo || dhi == bhi || dhi == blo || dlo == bhi {
			tlo, thi = c.mf.newVReg(false), c.mf.newVReg(false)
		}
		if tlo != alo {
			c.movRR(tlo, alo, 4, false)
		}
		lo := minstr(loOp, 4)
		lo.Dst, lo.Src1, lo.Src2 = tlo, tlo, blo
		// The high half consumes the low half's carry/borrow; the low op
		// must survive DCE even if its register result turns out dead.
		lo.KeepFlags = loOp == code.ADD || loOp == code.SUB
		c.emit(lo)
		if thi != ahi {
			c.movRR(thi, ahi, 4, false)
		}
		hi := minstr(hiOp, 4)
		hi.Dst, hi.Src1, hi.Src2 = thi, thi, bhi
		c.emit(hi)
		if tlo != dlo {
			c.movRR(dlo, tlo, 4, false)
			c.movRR(dhi, thi, 4, false)
		}
	}
	switch in.Op {
	case ir.Add:
		emitPairALU(code.ADD, code.ADC)
	case ir.Sub:
		emitPairALU(code.SUB, code.SBB)
	case ir.And:
		emitPairALU(code.AND, code.AND)
	case ir.Or:
		emitPairALU(code.OR, code.OR)
	case ir.Xor:
		emitPairALU(code.XOR, code.XOR)
	case ir.Mul:
		return fmt.Errorf("64-bit multiply cannot be emulated on 32-bit targets")
	}
	return nil
}

func (c *iselCtx) lowerShift(in *ir.Instr) error {
	var op code.Op
	switch in.Op {
	case ir.Shl:
		op = code.SHL
	case ir.Shr:
		op = code.SHR
	default:
		op = code.SAR
	}
	k := in.Imm
	if c.fs.Width == 32 && in.Type == ir.I64 {
		return c.lowerShift64(in, op, k)
	}
	sz := c.szOf(in.Type)
	dst, a := c.mapScalar(in.Dst), c.mapScalar(in.A)
	if dst != a {
		c.movRR(dst, a, sz, false)
	}
	sh := minstr(op, sz)
	sh.Dst, sh.Src1 = dst, dst
	sh.HasImm, sh.Imm = true, k
	c.emit(sh)
	return nil
}

// lowerShift64 expands a 64-bit shift by a constant 1..31 on a 32-bit target.
func (c *iselCtx) lowerShift64(in *ir.Instr, op code.Op, k int64) error {
	if k < 1 || k > 31 {
		return fmt.Errorf("64-bit shift by %d cannot be emulated (supported range 1..31)", k)
	}
	dlo, dhi := c.mapPair(in.Dst)
	alo, ahi := c.mapPair(in.A)
	tlo, thi := c.mf.newVReg(false), c.mf.newVReg(false)
	tc := c.mf.newVReg(false)
	sh := func(dst vreg, o code.Op, n int64) {
		s := minstr(o, 4)
		s.Dst, s.Src1 = dst, dst
		s.HasImm, s.Imm = true, n
		c.emit(s)
	}
	switch op {
	case code.SHL:
		c.movRR(thi, ahi, 4, false)
		sh(thi, code.SHL, k)
		c.movRR(tc, alo, 4, false)
		sh(tc, code.SHR, 32-k)
		or := minstr(code.OR, 4)
		or.Dst, or.Src1, or.Src2 = thi, thi, tc
		c.emit(or)
		c.movRR(tlo, alo, 4, false)
		sh(tlo, code.SHL, k)
	case code.SHR, code.SAR:
		c.movRR(tlo, alo, 4, false)
		sh(tlo, code.SHR, k)
		c.movRR(tc, ahi, 4, false)
		sh(tc, code.SHL, 32-k)
		or := minstr(code.OR, 4)
		or.Dst, or.Src1, or.Src2 = tlo, tlo, tc
		c.emit(or)
		c.movRR(thi, ahi, 4, false)
		sh(thi, op, k)
	}
	c.movRR(dlo, tlo, 4, false)
	c.movRR(dhi, thi, 4, false)
	return nil
}

var fpOpFor = map[ir.Op]code.Op{
	ir.FAdd: code.FADD, ir.FSub: code.FSUB, ir.FMul: code.FMUL, ir.FDiv: code.FDIV,
}

var vecOpFor = map[ir.Op]code.Op{
	ir.FAdd: code.VADDF, ir.FSub: code.VSUBF, ir.FMul: code.VMULF,
}

func (c *iselCtx) lowerFPBin(in *ir.Instr) error {
	var op code.Op
	if in.Type == ir.V4F32 {
		var ok bool
		op, ok = vecOpFor[in.Op]
		if !ok {
			return fmt.Errorf("vector %v unsupported", in.Op)
		}
	} else {
		op = fpOpFor[in.Op]
	}
	sz := c.szOf(in.Type)
	src := c.resolveSrc(in.B, false)
	commutative := in.Op == ir.FAdd || in.Op == ir.FMul
	c.emitBinop(op, sz, true, c.mapScalar(in.Dst), c.mapScalar(in.A), src, commutative)
	return nil
}

func (c *iselCtx) lowerExt(in *ir.Instr) error {
	if c.fs.Width == 64 {
		mx := minstr(code.MOVSX, 8)
		mx.Dst, mx.Src1 = c.mapScalar(in.Dst), c.mapScalar(in.A)
		c.emit(mx)
		return nil
	}
	dlo, dhi := c.mapPair(in.Dst)
	src := c.mapScalar(in.A)
	c.movRR(dlo, src, 4, false)
	c.movRR(dhi, src, 4, false)
	sh := minstr(code.SAR, 4)
	sh.Dst, sh.Src1 = dhi, dhi
	sh.HasImm, sh.Imm = true, 31
	c.emit(sh)
	return nil
}

func (c *iselCtx) lowerLoad(in *ir.Instr) error {
	m := c.legalMem(in.Mem)
	if c.is64Pair(in.Dst) {
		dlo, dhi := c.mapPair(in.Dst)
		lo := minstr(code.LD, 4)
		lo.Dst = dlo
		c.setMem(&lo, m)
		c.emit(lo)
		hi := minstr(code.LD, 4)
		hi.Dst = dhi
		m2 := m
		m2.disp += 4
		c.setMem(&hi, m2)
		c.emit(hi)
		return nil
	}
	var op code.Op
	sz := c.szOf(in.Type)
	switch {
	case in.Type.IsVector():
		op = code.VLD
	case in.Type.IsFloat():
		op = code.FLD
	default:
		op = code.LD
		if in.MemSize == 1 {
			sz = 1
		}
	}
	ld := minstr(op, sz)
	ld.Dst = c.mapScalar(in.Dst)
	c.setMem(&ld, m)
	pos := c.emit(ld)
	// Register as a folding candidate for a later ALU consumer.
	if in.MemSize == 0 && c.useCount[in.Dst] == 1 {
		c.folds[in.Dst] = foldCand{block: c.cur, pos: pos, mem: m, sz: sz, storeGen: c.storeGen}
	}
	return nil
}

func (c *iselCtx) lowerStore(in *ir.Instr) error {
	m := c.legalMem(in.Mem)
	if c.is64Pair(in.A) {
		slo, shi := c.mapPair(in.A)
		lo := minstr(code.ST, 4)
		lo.Src1 = slo
		c.setMem(&lo, m)
		c.emit(lo)
		hi := minstr(code.ST, 4)
		hi.Src1 = shi
		m2 := m
		m2.disp += 4
		c.setMem(&hi, m2)
		c.emit(hi)
		return nil
	}
	var op code.Op
	sz := c.szOf(in.Type)
	switch {
	case in.Type.IsVector():
		op = code.VST
	case in.Type.IsFloat():
		op = code.FST
	default:
		op = code.ST
		if in.MemSize == 1 {
			sz = 1
		}
	}
	st := minstr(op, sz)
	st.Src1 = c.mapScalar(in.A)
	c.setMem(&st, m)
	c.emit(st)
	return nil
}

func (c *iselCtx) lowerSelect(in *ir.Instr) error {
	if in.Type.IsFloat() {
		return fmt.Errorf("select: FP selects are not supported (no FP cmov)")
	}
	cc, err := c.condCC(in.C)
	if err != nil {
		return err
	}
	emitSel := func(dst, a, b vreg, sz uint8) {
		// dst = cc ? a : b. CMOV preserves flags; MOV does too.
		if dst != b {
			c.movRR(dst, b, sz, false)
		}
		cm := minstr(code.CMOVCC, sz)
		cm.Dst, cm.Src1, cm.CC = dst, a, cc
		c.emit(cm)
	}
	if c.is64Pair(in.Dst) {
		dlo, dhi := c.mapPair(in.Dst)
		alo, ahi := c.mapPair(in.A)
		blo, bhi := c.mapPair(in.B)
		// Guard aliasing: if dst aliases a, route through temps.
		if dlo == alo || dhi == ahi {
			tlo, thi := c.mf.newVReg(false), c.mf.newVReg(false)
			emitSel(tlo, alo, blo, 4)
			emitSel(thi, ahi, bhi, 4)
			c.movRR(dlo, tlo, 4, false)
			c.movRR(dhi, thi, 4, false)
		} else {
			emitSel(dlo, alo, blo, 4)
			emitSel(dhi, ahi, bhi, 4)
		}
		return nil
	}
	sz := c.szOf(in.Type)
	dst, a, b := c.mapScalar(in.Dst), c.mapScalar(in.A), c.mapScalar(in.B)
	if dst == a {
		// dst = cc ? dst : b  ==  if !cc dst = b.
		cm := minstr(code.CMOVCC, sz)
		cm.Dst, cm.Src1, cm.CC = dst, b, cc.Negate()
		c.emit(cm)
		return nil
	}
	emitSel(dst, a, b, sz)
	return nil
}
