package check

// Redundant spill/reload detection, shared between the verifier's spillpair
// rule and the compiler's post-emission peephole. Keeping one scanner on
// both sides makes the contract structural: the compiler deletes exactly
// the reloads the verifier would flag, so clean output stays finding-free
// and any reload the rule reports was provably not the compiler's doing.
//
// A reload `ld R <- slot` is redundant when an earlier store `st R -> slot`
// in the same straight-line window stored R, nothing touched R or the slot
// in between, and reloading cannot change R's value. The last condition is
// where width semantics bite: integer loads zero-extend, so a 4-byte
// store/reload pair only preserves a register that provably fits in 32
// bits, and a scalar FP reload clears the upper vector lane, which is only
// a no-op if that lane was already zero. The scanner tracks both properties
// per register from the defs it can see inside the window and stays silent
// whenever it cannot prove the reload is value-preserving.

import "compisa/internal/code"

// ElideRedundantReloads deletes every redundant spill reload (as defined by
// RedundantSpillReloads, over the same recovered CFG the spillpair rule
// scans) from p's instruction stream, retargeting branches. The caller is
// responsible for (re)running layout afterwards. Returns the number of
// instructions removed.
func ElideRedundantReloads(p *code.Program) int {
	g := recoverCFG(p)
	isDrop := make([]bool, len(p.Instrs))
	total := 0
	for bi := range g.Blocks {
		b := &g.Blocks[bi]
		for _, k := range RedundantSpillReloads(p.Instrs[b.Start:b.End]) {
			isDrop[b.Start+k] = true
			total++
		}
	}
	if total == 0 {
		return 0
	}
	// A dropped reload always follows a store in its own block, so it is
	// never a block leader and no branch can target it: every Target maps
	// cleanly through the index shift.
	newIdx := make([]int32, len(p.Instrs))
	n := int32(0)
	for i := range p.Instrs {
		newIdx[i] = n
		if !isDrop[i] {
			n++
		}
	}
	out := p.Instrs[:0]
	for i := range p.Instrs {
		if isDrop[i] {
			continue
		}
		in := p.Instrs[i]
		if in.Op == code.JMP || in.Op == code.JCC {
			in.Target = newIdx[in.Target]
		}
		out = append(out, in)
	}
	p.Instrs = out
	return total
}

// spillReloadOf maps each spill-store opcode to its matching reload.
var spillReloadOf = map[code.Op]code.Op{
	code.ST:  code.LD,
	code.FST: code.FLD,
	code.VST: code.VLD,
}

// intWidthBound is the static upper bound, in bits, of an integer register
// after an unpredicated def by in (the executor's writeInt masks 1- and
// 4-byte writes; loads zero-extend by access size).
func intWidthBound(in *code.Instr) int {
	szBits := func(sz uint8) int {
		switch sz {
		case 1:
			return 8
		case 4:
			return 32
		}
		return 64
	}
	switch in.Op {
	case code.LD:
		switch in.Sz {
		case 1:
			return 8
		case 2:
			return 16
		case 4:
			return 32
		}
		return 64
	case code.SETCC:
		return 1
	case code.MOVSX:
		return 64
	case code.CVTFI:
		return 32
	default:
		return szBits(in.Sz)
	}
}

// fpLane1Zero reports whether an unpredicated def by in leaves the upper
// vector lane zero (scalar FP results are written as {value, 0}); FMOV
// copies both lanes, so it propagates the source's property.
func fpLane1Zero(in *code.Instr, srcZero, srcKnown bool) (zero, known bool) {
	switch in.Op {
	case code.FLD, code.FADD, code.FSUB, code.FMUL, code.FDIV, code.CVTIF, code.VRSUM:
		return true, true
	case code.FMOV:
		return srcZero, srcKnown
	}
	return false, true // vector ops fill both lanes
}

// RedundantSpillReloads scans one straight-line window (a basic block) and
// returns the indices, relative to win, of reloads that provably reproduce
// the value already in their destination register.
func RedundantSpillReloads(win []code.Instr) []int {
	type rec struct {
		reg code.Reg
		op  code.Op
		sz  uint8
	}
	var out []int
	recs := map[int32]rec{}
	// Width facts for integer regs / lane facts for FP regs, known only
	// once a def is seen inside the window.
	type widthFact struct {
		known bool
		bits  int  // int regs: value < 2^bits
		lane0 bool // FP regs: upper lane is zero
	}
	var intW, fpW [256]widthFact

	dropReg := func(r code.Reg) {
		for a, rc := range recs {
			if rc.reg == r {
				delete(recs, a)
			}
		}
	}

	for i := range win {
		in := &win[i]
		addr, isSpillRef := spillSlotRef(in)

		// Redundant-reload match first: a hit changes nothing (that is
		// the point), so state carries through untouched.
		if isSpillRef && isSpillLoad(in.Op) && !in.Predicated() {
			if rc, ok := recs[addr]; ok && spillReloadOf[rc.op] == in.Op &&
				rc.sz == in.Sz && rc.reg == in.Dst {
				out = append(out, i)
				continue
			}
		}

		switch {
		case isSpillRef && isSpillStore(in.Op):
			if in.Predicated() {
				delete(recs, addr) // slot may change underneath the pair
				break
			}
			ok := false
			switch in.Op {
			case code.ST:
				w := intW[in.Src1]
				ok = in.Sz == 8 || (w.known && w.bits <= 8*int(in.Sz))
			case code.FST:
				w := fpW[in.Src1]
				ok = w.known && w.lane0
			case code.VST:
				ok = true // 16-byte pairs move the whole register
			}
			if ok {
				recs[addr] = rec{reg: in.Src1, op: in.Op, sz: in.Sz}
			} else {
				delete(recs, addr)
			}
		case isSpillStore(in.Op) && in.HasMem:
			// A store outside the spill area could alias any slot.
			for a := range recs {
				delete(recs, a)
			}
		}

		if r := in.Dst; in.Op.IntDst() && r != code.NoReg {
			dropReg(r)
			b := intWidthBound(in)
			if in.Op == code.MOV && !in.Predicated() && !in.HasImm && intW[in.Src1].known && intW[in.Src1].bits < b {
				b = intW[in.Src1].bits
			}
			merges := in.Predicated() || in.Op == code.CMOVCC
			if merges {
				if intW[r].known && intW[r].bits > b {
					b = intW[r].bits
				}
				intW[r] = widthFact{known: intW[r].known, bits: b}
			} else {
				intW[r] = widthFact{known: true, bits: b}
			}
		}
		if r := in.Dst; in.Op.IsFP() && r != code.NoReg {
			dropReg(r)
			src := fpW[in.Src1]
			zero, known := fpLane1Zero(in, src.lane0, src.known)
			if in.Predicated() {
				known = known && fpW[r].known
				zero = zero && fpW[r].lane0
			}
			fpW[r] = widthFact{known: known, lane0: zero}
		}
	}
	return out
}
