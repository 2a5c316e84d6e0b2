package migrate

import (
	"fmt"

	"compisa/internal/code"
	"compisa/internal/isa"
)

// narrowWidth performs long-mode emulation: 64-bit code is rewritten to run
// on a 32-bit core. Each architectural register's low 32 bits stay in the
// register; the high 32 bits live in the register context block. 32-bit
// instructions pass through unchanged; every 64-bit integer instruction
// expands into a pair sequence that manipulates the high words in memory,
// freeing scratch registers around it through the context block's save
// slots. (The paper emulates wide types with fat pointers held in xmm
// registers; a memory-resident context block is the equivalent mechanism
// with the same extra-instruction cost profile.)
//
// Pointer values are guaranteed below 4 GiB by the memory map, so address
// arithmetic needs only the low words.
func narrowWidth(p *code.Program) (*code.Program, error) {
	rw := newRewriter(p)
	w := &widener{rw: rw, p: p}
	for i := range p.Instrs {
		rw.beginInstr(i)
		if err := w.instr(i); err != nil {
			return nil, fmt.Errorf("narrow %s[%d] (%s): %w", p.Name, i, code.FormatInstr(&p.Instrs[i]), err)
		}
	}
	fs := p.FS
	fs.Width = 32
	return rw.finishWithLocal(fs, "+w32")
}

type widener struct {
	rw *rewriter
	p  *code.Program
}

// saveReg emits "ST r, [save_k]" and returns a closure restoring it.
func (w *widener) saveReg(r code.Reg, k int, pred code.Reg, sense bool) func() {
	sv := ci(code.ST, 4)
	sv.Src1 = r
	sv.HasMem, sv.Mem = true, absMem(saveAddr(k))
	w.rw.push(sv)
	return func() {
		rs := ci(code.LD, 4)
		rs.Dst = r
		rs.HasMem, rs.Mem = true, absMem(saveAddr(k))
		w.rw.push(rs)
	}
}

func (w *widener) loadHi(dst, src code.Reg, pred code.Reg, sense bool) {
	ld := ci(code.LD, 4)
	ld.Dst = dst
	ld.HasMem, ld.Mem = true, absMem(ctxHiAddr(src))
	w.rw.push(ld)
}

func (w *widener) storeHi(src, dst code.Reg, pred code.Reg, sense bool) {
	st := ci(code.ST, 4)
	st.Src1 = src
	st.HasMem, st.Mem = true, absMem(ctxHiAddr(dst))
	st.Pred, st.PredSense = pred, sense
	w.rw.push(st)
}

// instr translates one instruction.
func (w *widener) instr(idx int) error {
	in := w.p.Instrs[idx]
	rw := w.rw
	// FP-family and 32-bit instructions run unchanged; SSE scalar doubles
	// (FLD/FST/FADD... with Sz 8) are legal on 32-bit cores. An op whose
	// destination or sources are FP registers sizes FP data.
	if in.Sz != 8 || in.Op.IsFP() || in.Op.FPSources() {
		rw.push(in)
		return nil
	}

	pred, sense := in.Pred, in.PredSense
	pick := scratchPicker(&in, w.p.FS.Depth)
	narrow := func(i code.Instr) code.Instr {
		i.Sz = 4
		return i
	}

	switch in.Op {
	case code.MOV:
		if in.HasImm {
			lo := narrow(in)
			lo.Imm = int64(uint32(uint64(in.Imm)))
			rw.push(lo)
			t, err := pick()
			if err != nil {
				return err
			}
			restore := w.saveReg(t, 0, pred, sense)
			mh := ci(code.MOV, 4)
			mh.Dst = t
			mh.HasImm, mh.Imm = true, int64(uint32(uint64(in.Imm)>>32))
			mh.Pred, mh.PredSense = pred, sense
			rw.push(mh)
			w.storeHi(t, in.Dst, pred, sense)
			restore()
			return nil
		}
		rw.push(narrow(in))
		t, err := pick()
		if err != nil {
			return err
		}
		restore := w.saveReg(t, 0, pred, sense)
		w.loadHi(t, in.Src1, pred, sense)
		w.storeHi(t, in.Dst, pred, sense)
		restore()
		return nil

	case code.MOVSX:
		lo := ci(code.MOV, 4)
		lo.Dst, lo.Src1 = in.Dst, in.Src1
		lo.Pred, lo.PredSense = pred, sense
		rw.push(lo)
		t, err := pick()
		if err != nil {
			return err
		}
		restore := w.saveReg(t, 0, pred, sense)
		mv := ci(code.MOV, 4)
		mv.Dst, mv.Src1 = t, in.Src1
		rw.push(mv)
		sar := ci(code.SAR, 4)
		sar.Dst, sar.Src1 = t, t
		sar.HasImm, sar.Imm = true, 31
		rw.push(sar)
		w.storeHi(t, in.Dst, pred, sense)
		restore()
		return nil

	case code.LEA:
		rw.push(narrow(in))
		return nil

	case code.LD:
		rw.push(narrow(in))
		t, err := pick()
		if err != nil {
			return err
		}
		restore := w.saveReg(t, 0, pred, sense)
		hi := ci(code.LD, 4)
		hi.Dst = t
		hi.HasMem = true
		hi.Mem = in.Mem
		hi.Mem.Disp += 4
		rw.push(hi)
		w.storeHi(t, in.Dst, pred, sense)
		restore()
		return nil

	case code.ST:
		rw.push(narrow(in))
		t, err := pick()
		if err != nil {
			return err
		}
		restore := w.saveReg(t, 0, pred, sense)
		w.loadHi(t, in.Src1, pred, sense)
		hi := ci(code.ST, 4)
		hi.Src1 = t
		hi.HasMem = true
		hi.Mem = in.Mem
		hi.Mem.Disp += 4
		hi.Pred, hi.PredSense = pred, sense
		rw.push(hi)
		restore()
		return nil

	case code.ADD, code.SUB, code.AND, code.OR, code.XOR:
		// Low halves in place (sets CF for the carry chain).
		rw.push(narrow(in))
		t, err := pick()
		if err != nil {
			return err
		}
		restore := w.saveReg(t, 0, pred, sense)
		w.loadHi(t, in.Dst, pred, sense)
		var hiOp code.Op
		switch in.Op {
		case code.ADD:
			hiOp = code.ADC
		case code.SUB:
			hiOp = code.SBB
		default:
			hiOp = in.Op
		}
		hi := ci(hiOp, 4)
		hi.Dst, hi.Src1 = t, t
		hi.Pred, hi.PredSense = pred, sense
		if in.HasImm {
			hi.HasImm = true
			hi.Imm = int64(uint32(uint64(in.Imm) >> 32))
			if in.Imm < 0 && (in.Op == code.ADD || in.Op == code.SUB || in.Op == code.AND || in.Op == code.OR || in.Op == code.XOR) {
				hi.Imm = int64(uint32(uint64(in.Imm) >> 32)) // sign bits included
			}
		} else {
			hi.HasMem, hi.Mem = true, absMem(ctxHiAddr(in.Src2))
		}
		rw.push(hi)
		w.storeHi(t, in.Dst, pred, sense)
		restore()
		return nil

	case code.IMUL:
		// Multiplies at 64 bits appear only in address arithmetic, whose
		// values stay below 2^32; the low product suffices, and the high
		// word is cleared.
		rw.push(narrow(in))
		t, err := pick()
		if err != nil {
			return err
		}
		restore := w.saveReg(t, 0, pred, sense)
		z := ci(code.MOV, 4)
		z.Dst = t
		z.HasImm, z.Imm = true, 0
		z.Pred, z.PredSense = pred, sense
		rw.push(z)
		w.storeHi(t, in.Dst, pred, sense)
		restore()
		return nil

	case code.SHL, code.SHR, code.SAR:
		return w.shift(in, pick)

	case code.CMP:
		return w.cmp64(idx, in, pick)

	case code.TEST:
		// a & b == 0 over 64 bits: OR of (lo&lo) and (hi&hi).
		t, err := pick()
		if err != nil {
			return err
		}
		t2, err := pick()
		if err != nil {
			return err
		}
		r1 := w.saveReg(t, 0, pred, sense)
		r2 := w.saveReg(t2, 1, pred, sense)
		mv := ci(code.MOV, 4)
		mv.Dst, mv.Src1 = t, in.Src1
		rw.push(mv)
		and := ci(code.AND, 4)
		and.Dst, and.Src1, and.Src2 = t, t, in.Src2
		rw.push(and)
		w.loadHi(t2, in.Src1, pred, sense)
		and2 := ci(code.AND, 4)
		and2.Dst, and2.Src1 = t2, t2
		and2.HasMem, and2.Mem = true, absMem(ctxHiAddr(in.Src2))
		rw.push(and2)
		or := ci(code.OR, 4)
		or.Dst, or.Src1, or.Src2 = t, t, t2
		rw.push(or)
		r2()
		r1()
		return nil

	case code.SETCC:
		rw.push(narrow(in))
		return nil

	case code.CMOVCC:
		// Low: unchanged at 32 bits (flags preserved). High: CMOV from
		// the source's context slot into the destination's.
		rw.push(narrow(in))
		t, err := pick()
		if err != nil {
			return err
		}
		restore := w.saveReg(t, 0, pred, sense)
		w.loadHi(t, in.Dst, pred, sense)
		cm := ci(code.CMOVCC, 4)
		cm.Dst, cm.CC = t, in.CC
		cm.HasMem, cm.Mem = true, absMem(ctxHiAddr(in.Src1))
		rw.push(cm)
		w.storeHi(t, in.Dst, pred, sense)
		restore()
		return nil

	case code.RET, code.JMP, code.JCC, code.NOP:
		rw.push(in)
		return nil
	}
	return fmt.Errorf("unhandled 64-bit op %v", in.Op)
}

// shift expands a 64-bit shift by constant k (1..31).
func (w *widener) shift(in code.Instr, pick func() (code.Reg, error)) error {
	rw := w.rw
	k := in.Imm
	if k < 1 || k > 31 {
		return fmt.Errorf("64-bit shift by %d not emulatable", k)
	}
	pred, sense := in.Pred, in.PredSense
	t, err := pick()
	if err != nil {
		return err
	}
	t2, err := pick()
	if err != nil {
		return err
	}
	r1 := w.saveReg(t, 0, pred, sense)
	r2 := w.saveReg(t2, 1, pred, sense)
	d := in.Dst
	sh := func(dst code.Reg, op code.Op, n int64, p code.Reg, s bool) {
		i := ci(op, 4)
		i.Dst, i.Src1 = dst, dst
		i.HasImm, i.Imm = true, n
		i.Pred, i.PredSense = p, s
		rw.push(i)
	}
	switch in.Op {
	case code.SHL:
		// hi = (hi << k) | (lo >> (32-k)); lo <<= k.
		w.loadHi(t, d, pred, sense)
		sh(t, code.SHL, k, code.NoReg, false)
		mv := ci(code.MOV, 4)
		mv.Dst, mv.Src1 = t2, d
		rw.push(mv)
		sh(t2, code.SHR, 32-k, code.NoReg, false)
		or := ci(code.OR, 4)
		or.Dst, or.Src1, or.Src2 = t, t, t2
		rw.push(or)
		w.storeHi(t, d, pred, sense)
		lo := ci(code.SHL, 4)
		lo.Dst, lo.Src1 = d, d
		lo.HasImm, lo.Imm = true, k
		lo.Pred, lo.PredSense = pred, sense
		rw.push(lo)
	case code.SHR, code.SAR:
		// lo = (lo >> k) | (hi << (32-k)); hi >>= k (arith for SAR).
		w.loadHi(t, d, pred, sense)
		mv := ci(code.MOV, 4)
		mv.Dst, mv.Src1 = t2, t
		rw.push(mv)
		sh(t2, code.SHL, 32-k, code.NoReg, false)
		lo := ci(code.SHR, 4)
		lo.Dst, lo.Src1 = d, d
		lo.HasImm, lo.Imm = true, k
		lo.Pred, lo.PredSense = pred, sense
		rw.push(lo)
		or := ci(code.OR, 4)
		or.Dst, or.Src1, or.Src2 = d, d, t2
		or.Pred, or.PredSense = pred, sense
		rw.push(or)
		sh(t, in.Op, k, code.NoReg, false)
		w.storeHi(t, d, pred, sense)
	}
	r2()
	r1()
	return nil
}

// cmp64 expands a 64-bit compare, choosing the equality (XOR/OR) or
// relational (CMP/SBB) flag idiom by inspecting the next flag consumer.
func (w *widener) cmp64(idx int, in code.Instr, pick func() (code.Reg, error)) error {
	rw := w.rw
	cc := w.nextConsumerCC(idx)
	t, err := pick()
	if err != nil {
		return err
	}
	restore := w.saveReg(t, 0, in.Pred, in.PredSense)
	b2 := func(i *code.Instr) {
		if in.HasImm {
			i.HasImm = true
			i.Imm = int64(uint32(uint64(in.Imm)))
		} else {
			i.Src2 = in.Src2
		}
	}
	hi2 := func(i *code.Instr) {
		if in.HasImm {
			i.HasImm = true
			i.Imm = int64(uint32(uint64(in.Imm) >> 32))
		} else {
			i.HasMem, i.Mem = true, absMem(ctxHiAddr(in.Src2))
		}
	}
	switch cc {
	case code.CCEQ, code.CCNE:
		t2, err := pick()
		if err != nil {
			return err
		}
		r2 := w.saveReg(t2, 1, in.Pred, in.PredSense)
		mv := ci(code.MOV, 4)
		mv.Dst, mv.Src1 = t, in.Src1
		rw.push(mv)
		x1 := ci(code.XOR, 4)
		x1.Dst, x1.Src1 = t, t
		b2(&x1)
		rw.push(x1)
		w.loadHi(t2, in.Src1, code.NoReg, false)
		x2 := ci(code.XOR, 4)
		x2.Dst, x2.Src1 = t2, t2
		hi2(&x2)
		rw.push(x2)
		or := ci(code.OR, 4)
		or.Dst, or.Src1, or.Src2 = t, t, t2
		rw.push(or)
		r2()
	default:
		// CMP lo; SBB of the highs leaves SF/OF/CF correct.
		cmp := ci(code.CMP, 4)
		cmp.Src1 = in.Src1
		b2(&cmp)
		rw.push(cmp)
		w.loadHi(t, in.Src1, code.NoReg, false)
		sbb := ci(code.SBB, 4)
		sbb.Dst, sbb.Src1 = t, t
		hi2(&sbb)
		rw.push(sbb)
	}
	restore()
	return nil
}

// nextConsumerCC scans forward for the first flag consumer after idx.
func (w *widener) nextConsumerCC(idx int) code.CC {
	for j := idx + 1; j < len(w.p.Instrs); j++ {
		in := &w.p.Instrs[j]
		if in.Op.ReadsFlags() {
			return in.CC
		}
		if in.Op.WritesFlags() {
			break
		}
	}
	return code.CCLT
}

// lowerDepth emulates registers at or above the target register depth
// through the register context block: each instruction referencing high
// registers frees low registers via save slots, loads the high registers'
// values, runs, and writes results back (Section IV.B's register context
// block technique [15], [104], [105]).
func lowerDepth(p *code.Program, depth int) (*code.Program, error) {
	rw := newRewriter(p)
	for i := range p.Instrs {
		in := p.Instrs[i]
		rw.beginInstr(i)
		var regs []code.Reg
		regs = in.IntRegs(regs)
		var high []code.Reg
		seen := map[code.Reg]bool{}
		for _, r := range regs {
			if int(r) >= depth && !seen[r] {
				high = append(high, r)
				seen[r] = true
			}
		}
		var fpHigh []code.Reg
		fpLimit := isa.FeatureSet{Complexity: p.FS.Complexity, Width: p.FS.Width,
			Depth: depth, Predication: p.FS.Predication}.FPRegs()
		var fregs []code.Reg
		fregs = in.FPRegs(fregs)
		fseen := map[code.Reg]bool{}
		for _, r := range fregs {
			if int(r) >= fpLimit && !fseen[r] {
				fpHigh = append(fpHigh, r)
				fseen[r] = true
			}
		}
		if len(high) == 0 && len(fpHigh) == 0 {
			rw.push(in)
			continue
		}
		if len(fpHigh) > 0 {
			return nil, fmt.Errorf("lowerDepth %s[%d]: fp register above target file", p.Name, i)
		}
		pick := scratchPicker(&in, depth)
		sub := map[code.Reg]code.Reg{}
		var restores []func()
		for k, h := range high {
			s, err := pick()
			if err != nil {
				return nil, fmt.Errorf("lowerDepth %s[%d]: %w", p.Name, i, err)
			}
			sub[h] = s
			slot := saveBaseDepth + k
			// Free the low register, then load the high register's
			// current value from the context block.
			sv := ci(code.ST, uint8(p.FS.Width/8))
			sv.Src1 = s
			sv.HasMem, sv.Mem = true, absMem(saveAddr(slot))
			rw.push(sv)
			ld := ci(code.LD, uint8(p.FS.Width/8))
			ld.Dst = s
			ld.HasMem, ld.Mem = true, absMem(ctxAddr(h))
			rw.push(ld)
			writesH := in.Op.IntDst() && in.Dst == h
			restores = append(restores, func() {
				if writesH {
					st := ci(code.ST, uint8(p.FS.Width/8))
					st.Src1 = s
					st.HasMem, st.Mem = true, absMem(ctxAddr(h))
					rw.push(st)
				}
				rs := ci(code.LD, uint8(p.FS.Width/8))
				rs.Dst = s
				rs.HasMem, rs.Mem = true, absMem(saveAddr(slot))
				rw.push(rs)
			})
		}
		out := in
		remap := func(r code.Reg) code.Reg {
			if s, ok := sub[r]; ok {
				return s
			}
			return r
		}
		if out.Dst != code.NoReg && !out.Op.IsFP() {
			out.Dst = remap(out.Dst)
		}
		if !out.Op.FPSources() {
			if out.Src1 != code.NoReg {
				out.Src1 = remap(out.Src1)
			}
			if out.Src2 != code.NoReg {
				out.Src2 = remap(out.Src2)
			}
		}
		if out.HasMem {
			if out.Mem.Base != code.NoReg {
				out.Mem.Base = remap(out.Mem.Base)
			}
			if out.Mem.Index != code.NoReg {
				out.Mem.Index = remap(out.Mem.Index)
			}
		}
		if out.Pred != code.NoReg {
			out.Pred = remap(out.Pred)
		}
		rw.push(out)
		// Nothing executes after RET, and the restores would trail the
		// terminator; skip them.
		if out.Op != code.RET {
			for j := len(restores) - 1; j >= 0; j-- {
				restores[j]()
			}
		}
	}
	fs := p.FS
	fs.Depth = depth
	if fs.Width == 64 && fs.Depth < 16 {
		return nil, fmt.Errorf("lowerDepth: 64-bit code cannot target depth %d; narrow width first", depth)
	}
	if fs.Width == 32 && fs.Depth == 8 && fs.Predication == isa.FullPredication {
		fs.Predication = isa.PartialPredication
		// reverseIfConvert must already have run; verify.
		for i := range rw.out {
			if rw.out[i].Predicated() {
				return nil, fmt.Errorf("lowerDepth: predicated code cannot target depth 8")
			}
		}
	}
	return rw.finish(fs, fmt.Sprintf("+d%d", depth))
}
