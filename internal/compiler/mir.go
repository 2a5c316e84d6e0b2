// Package compiler implements the backend that lowers IR regions to
// superset-ISA machine code for a chosen composite feature set. The pipeline
// mirrors the paper's LLVM-based toolchain (Section IV):
//
//	vectorize -> instruction selection -> if-conversion -> dead-code
//	elimination -> register allocation -> emission/layout
//
// Instruction selection chooses between full-x86 memory-operand forms and
// microx86 load-compute-store sequences, expands 64-bit operations into
// 32-bit pairs on narrow targets, and fuses compares into branches. The
// machine-level if-converter implements diamond/triangle/simple patterns
// with an LLVM-style profitability heuristic. The linear-scan register
// allocator is parameterized by the feature set's register depth, spills
// through a register context block, rematerializes constants, and
// prioritizes registers with cheap prefix encodings.
package compiler

import (
	"fmt"

	"compisa/internal/code"
)

// vreg is a machine-level virtual register; values < 0 mean "none".
type vreg int32

const noVR vreg = -1

// mInstr is a machine instruction over virtual registers. It mirrors
// code.Instr but with unbounded register operands; branches live in block
// terminators, not in the instruction list. Register allocation and emission
// turn machine IR into code.Instr.
type mInstr struct {
	Op     code.Op
	Sz     uint8
	Dst    vreg
	Src1   vreg
	Src2   vreg
	Imm    int64
	HasImm bool
	HasMem bool
	// Memory operand over virtual registers. MemBase == noVR denotes
	// absolute (disp32-only) addressing, used for spill slots in the
	// register context block and for the constant pool.
	MemBase   vreg
	MemIndex  vreg
	Scale     uint8
	Disp      int32
	CC        code.CC
	Pred      vreg
	PredSense bool
	// KeepFlags marks instructions emitted purely (or additionally) as
	// flag producers for an adjacent consumer; dead-code elimination must
	// not remove them even when their register result is unused.
	KeepFlags bool
}

func (in *mInstr) predicated() bool { return in.Pred != noVR }

// uses calls f for every register the instruction reads, with its class.
func (in *mInstr) uses(f func(r vreg, fp bool)) {
	fp := in.Op.FPSources()
	if in.Src1 != noVR {
		f(in.Src1, fp)
	}
	if in.Src2 != noVR {
		f(in.Src2, fp)
	}
	if in.HasMem {
		if in.MemBase != noVR {
			f(in.MemBase, false)
		}
		if in.MemIndex != noVR {
			f(in.MemIndex, false)
		}
	}
	if in.Pred != noVR {
		f(in.Pred, false)
	}
	// Predicated instructions and CMOV merge with the prior destination
	// value, so they read their destination.
	if in.predicated() || in.Op == code.CMOVCC {
		if d, fp := in.def(); d != noVR {
			f(d, fp)
		}
	}
}

// def returns the written register and its class, or noVR.
func (in *mInstr) def() (vreg, bool) {
	if fp := in.Op.IsFP(); fp || in.Op.IntDst() {
		return in.Dst, fp
	}
	return noVR, false
}

// hasSideEffect reports whether DCE must keep the instruction regardless of
// its result's liveness.
func (in *mInstr) hasSideEffect() bool {
	switch in.Op {
	case code.ST, code.FST, code.VST:
		return true
	case code.CMP, code.TEST, code.FCMP:
		return true // pure flag producers; always adjacent to a consumer
	}
	return in.KeepFlags
}

// termKind discriminates block terminators.
type termKind uint8

const (
	termNone termKind = iota // fallthrough to the next block in layout order
	termJmp
	termJcc
	termRet
)

// mTerm is a block terminator. For termJcc the block's instruction list ends
// with the flag-producing compare; Taken is the target when CC holds and
// Fall otherwise.
type mTerm struct {
	Kind  termKind
	CC    code.CC
	Taken *mBlock
	Fall  *mBlock // nil means fallthrough to next block in layout order
	Ret   vreg    // termRet: register holding the region checksum
	Prob  float32 // profile probability the JCC is taken
}

// mBlock is a machine basic block.
type mBlock struct {
	id     int
	name   string
	instrs []mInstr
	term   mTerm

	succs []*mBlock
	preds []*mBlock
}

// mFunc is a machine-level function. Blocks are laid out in slice order.
type mFunc struct {
	name   string
	blocks []*mBlock
	entry  *mBlock
	nvregs int
	isFP   []bool // register class per vreg
	stats  code.CompileStats
	// pool is the constant pool: 4- or 8-byte constants addressed
	// absolutely (FP immediates).
	pool []code.PoolConst
}

func newMFunc(name string) *mFunc { return &mFunc{name: name} }

func (f *mFunc) newBlock(name string) *mBlock {
	b := &mBlock{id: len(f.blocks), name: name}
	f.blocks = append(f.blocks, b)
	if f.entry == nil {
		f.entry = b
	}
	return b
}

func (f *mFunc) newVReg(fp bool) vreg {
	v := vreg(f.nvregs)
	f.nvregs++
	f.isFP = append(f.isFP, fp)
	return v
}

// next returns the layout successor of b, or nil.
func (f *mFunc) next(b *mBlock) *mBlock {
	for i, blk := range f.blocks {
		if blk == b {
			if i+1 < len(f.blocks) {
				return f.blocks[i+1]
			}
			return nil
		}
	}
	return nil
}

// fallTarget resolves a terminator's fallthrough block.
func (f *mFunc) fallTarget(b *mBlock) *mBlock {
	if b.term.Fall != nil {
		return b.term.Fall
	}
	return f.next(b)
}

// computeCFG rebuilds successor/predecessor lists.
func (f *mFunc) computeCFG() {
	for _, b := range f.blocks {
		b.succs = b.succs[:0]
		b.preds = b.preds[:0]
	}
	for _, b := range f.blocks {
		switch b.term.Kind {
		case termNone:
			if n := f.fallTarget(b); n != nil {
				b.succs = append(b.succs, n)
			}
		case termJmp:
			b.succs = append(b.succs, b.term.Taken)
		case termJcc:
			b.succs = append(b.succs, b.term.Taken)
			if n := f.fallTarget(b); n != nil {
				b.succs = append(b.succs, n)
			}
		case termRet:
		}
	}
	for _, b := range f.blocks {
		for _, s := range b.succs {
			s.preds = append(s.preds, b)
		}
	}
}

// verify checks machine-IR structural invariants before emission.
func (f *mFunc) verify() error {
	for _, b := range f.blocks {
		for i := range b.instrs {
			in := &b.instrs[i]
			if in.Op.IsBranch() {
				return fmt.Errorf("%s/%s[%d]: branch op in instruction list", f.name, b.name, i)
			}
			if isTwoAddressALU(in.Op) && in.Dst != in.Src1 {
				return fmt.Errorf("%s/%s[%d]: %v violates two-address form (dst=%d src1=%d)",
					f.name, b.name, i, in.Op, in.Dst, in.Src1)
			}
		}
		if b.term.Kind == termJcc && b.term.Taken == nil {
			return fmt.Errorf("%s/%s: jcc without target", f.name, b.name)
		}
	}
	if len(f.blocks) == 0 {
		return fmt.Errorf("%s: empty function", f.name)
	}
	return nil
}

// isTwoAddressALU reports whether the op requires Dst == Src1, matching
// the two-address instruction format both encoders share.
func isTwoAddressALU(op code.Op) bool { return op.TwoAddress() }
