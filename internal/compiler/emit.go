package compiler

import (
	"fmt"

	"compisa/internal/check"
	"compisa/internal/code"
	"compisa/internal/encoding"
	"compisa/internal/isa"
)

// scratchPool hands out the reserved scratch registers of one class during
// the rewrite of a single instruction.
type scratchPool struct {
	free []code.Reg
}

func newScratchPool(regs []code.Reg) *scratchPool {
	f := make([]code.Reg, len(regs))
	copy(f, regs)
	return &scratchPool{free: f}
}

func (p *scratchPool) get() (code.Reg, error) {
	if len(p.free) == 0 {
		return 0, fmt.Errorf("compiler: out of scratch registers during spill rewrite")
	}
	r := p.free[0]
	p.free = p.free[1:]
	return r, nil
}

func (p *scratchPool) put(r code.Reg) { p.free = append(p.free, r) }

type fixup struct {
	idx    int
	target *mBlock
}

type emitter struct {
	f     *mFunc
	fs    isa.FeatureSet
	alloc *allocation
	out   []code.Instr
	fix   []fixup
	start map[*mBlock]int
	stats *code.CompileStats
}

func (e *emitter) push(ci code.Instr) { e.out = append(e.out, ci) }

// cInstr returns a code.Instr skeleton with register fields cleared.
func cInstr(op code.Op, sz uint8) code.Instr {
	return code.Instr{Op: op, Sz: sz, Dst: code.NoReg, Src1: code.NoReg,
		Src2: code.NoReg, Pred: code.NoReg, Mem: code.Mem{Base: code.NoReg, Index: code.NoReg, Scale: 1}}
}

func (e *emitter) intSpillSz() uint8 { return uint8(e.fs.Width / 8) }

// refillInt loads a spilled or rematerialized integer vreg into a scratch.
func (e *emitter) refillInt(l loc, pool *scratchPool) (code.Reg, error) {
	s, err := pool.get()
	if err != nil {
		return 0, err
	}
	if l.kind == locRemat {
		mv := cInstr(code.MOV, e.intSpillSz())
		mv.Dst = s
		mv.HasImm, mv.Imm = true, l.imm
		e.push(mv)
		e.stats.Remats++
		return s, nil
	}
	ld := cInstr(code.LD, e.intSpillSz())
	ld.Dst = s
	ld.HasMem = true
	ld.Mem = code.Mem{Base: code.NoReg, Index: code.NoReg, Scale: 1, Disp: slotAddr(l.slot)}
	e.push(ld)
	e.stats.RefillLoads++
	return s, nil
}

func (e *emitter) fpOps(sz uint8) (ldOp, stOp code.Op) {
	if sz == 16 {
		return code.VLD, code.VST
	}
	return code.FLD, code.FST
}

func (e *emitter) refillFP(l loc, sz uint8, pool *scratchPool) (code.Reg, error) {
	s, err := pool.get()
	if err != nil {
		return 0, err
	}
	ldOp, _ := e.fpOps(sz)
	ld := cInstr(ldOp, sz)
	ld.Dst = s
	ld.HasMem = true
	ld.Mem = code.Mem{Base: code.NoReg, Index: code.NoReg, Scale: 1, Disp: slotAddr(l.slot)}
	e.push(ld)
	e.stats.RefillLoads++
	return s, nil
}

func (e *emitter) spillStoreInt(r code.Reg, l loc) {
	st := cInstr(code.ST, e.intSpillSz())
	st.Src1 = r
	st.HasMem = true
	st.Mem = code.Mem{Base: code.NoReg, Index: code.NoReg, Scale: 1, Disp: slotAddr(l.slot)}
	e.push(st)
	e.stats.SpillStores++
}

func (e *emitter) spillStoreFP(r code.Reg, l loc, sz uint8) {
	_, stOp := e.fpOps(sz)
	st := cInstr(stOp, sz)
	st.Src1 = r
	st.HasMem = true
	st.Mem = code.Mem{Base: code.NoReg, Index: code.NoReg, Scale: 1, Disp: slotAddr(l.slot)}
	e.push(st)
	e.stats.SpillStores++
}

// emitInstr rewrites one machine instruction, inserting refills/stores
// around it for spilled operands.
func (e *emitter) emitInstr(in *mInstr) error {
	ipool := newScratchPool(e.alloc.intScratch)
	fpool := newScratchPool(e.alloc.fpScratch)
	locOf := func(v vreg) loc { return e.alloc.locs[v] }

	// A remat-located def means this is the single MOV-imm defining a
	// rematerialized constant: drop it, uses re-materialize on demand.
	if d, _ := in.def(); d != noVR && locOf(d).kind == locRemat {
		return nil
	}

	ci := cInstr(in.Op, in.Sz)
	ci.Imm, ci.HasImm = in.Imm, in.HasImm
	ci.CC = in.CC

	// Per-instruction cache so the same spilled vreg resolves to one
	// scratch (e.g. TEST v, v).
	resolved := map[vreg]code.Reg{}
	mapInt := func(v vreg) (code.Reg, error) {
		if r, ok := resolved[v]; ok {
			return r, nil
		}
		l := locOf(v)
		if l.kind == locPhys {
			resolved[v] = l.phys
			return l.phys, nil
		}
		r, err := e.refillInt(l, ipool)
		if err != nil {
			return 0, err
		}
		resolved[v] = r
		return r, nil
	}
	mapFP := func(v vreg) (code.Reg, error) {
		if r, ok := resolved[v]; ok {
			return r, nil
		}
		l := locOf(v)
		if l.kind == locPhys {
			resolved[v] = l.phys
			return l.phys, nil
		}
		r, err := e.refillFP(l, e.alloc.vsz[v], fpool)
		if err != nil {
			return 0, err
		}
		resolved[v] = r
		return r, nil
	}

	// 1. Memory operand: fold a spilled index into a scratch base so the
	// worst case needs one held scratch.
	if in.HasMem {
		ci.HasMem = true
		ci.Mem.Scale = in.Scale
		ci.Mem.Disp = in.Disp
		baseSpilled := in.MemBase != noVR && locOf(in.MemBase).kind != locPhys
		idxSpilled := in.MemIndex != noVR && locOf(in.MemIndex).kind != locPhys
		switch {
		case idxSpilled:
			// Materialize base + index*scale into one scratch.
			sI, err := e.refillInt(locOf(in.MemIndex), ipool)
			if err != nil {
				return err
			}
			if in.Scale > 1 {
				sh := cInstr(code.SHL, e.intSpillSz())
				sh.Dst, sh.Src1 = sI, sI
				sh.HasImm, sh.Imm = true, int64(log2u(in.Scale))
				e.push(sh)
			}
			if in.MemBase != noVR {
				var bReg code.Reg
				if baseSpilled {
					sB, err := e.refillInt(locOf(in.MemBase), ipool)
					if err != nil {
						return err
					}
					bReg = sB
					add := cInstr(code.ADD, e.intSpillSz())
					add.Dst, add.Src1, add.Src2 = sI, sI, bReg
					e.push(add)
					ipool.put(sB)
				} else {
					add := cInstr(code.ADD, e.intSpillSz())
					add.Dst, add.Src1, add.Src2 = sI, sI, locOf(in.MemBase).phys
					e.push(add)
				}
			}
			ci.Mem.Base, ci.Mem.Index, ci.Mem.Scale = sI, code.NoReg, 1
		case baseSpilled:
			sB, err := e.refillInt(locOf(in.MemBase), ipool)
			if err != nil {
				return err
			}
			ci.Mem.Base = sB
			if in.MemIndex != noVR {
				ci.Mem.Index = locOf(in.MemIndex).phys
			}
		default:
			if in.MemBase != noVR {
				ci.Mem.Base = locOf(in.MemBase).phys
			}
			if in.MemIndex != noVR {
				ci.Mem.Index = locOf(in.MemIndex).phys
			}
		}
	}

	// 2. Predicate register.
	if in.Pred != noVR {
		p, err := mapInt(in.Pred)
		if err != nil {
			return err
		}
		ci.Pred, ci.PredSense = p, in.PredSense
	}

	// 3. Source registers by class.
	mapSrc := func(v vreg) (code.Reg, error) {
		if in.Op.FPSources() {
			return mapFP(v)
		}
		return mapInt(v)
	}
	if in.Src1 != noVR {
		r, err := mapSrc(in.Src1)
		if err != nil {
			return err
		}
		ci.Src1 = r
	}
	if in.Src2 != noVR {
		r, err := mapSrc(in.Src2)
		if err != nil {
			return err
		}
		ci.Src2 = r
	}

	// 4. Destination.
	d, dFP := in.def()
	var dLoc loc
	var dScratch code.Reg
	spillDef := false
	if d != noVR {
		dLoc = locOf(d)
		if dLoc.kind == locPhys {
			ci.Dst = dLoc.phys
		} else {
			spillDef = true
			// Reads-modifies-writes need the old value loaded first;
			// two-address ops already resolved Src1 == Dst to the
			// same scratch via the per-instruction cache.
			rmw := isTwoAddressALU(in.Op) || in.Op == code.CMOVCC || in.predicated()
			if r, ok := resolved[d]; ok && isTwoAddressALU(in.Op) {
				dScratch = r // Src1 == Dst, already refilled
			} else if rmw {
				var err error
				if dFP {
					dScratch, err = e.refillFP(dLoc, e.alloc.vsz[d], fpool)
				} else {
					dScratch, err = e.refillInt(dLoc, ipool)
				}
				if err != nil {
					return err
				}
			} else {
				var err error
				if dFP {
					dScratch, err = fpool.get()
				} else {
					dScratch, err = ipool.get()
				}
				if err != nil {
					return err
				}
			}
			ci.Dst = dScratch
			if isTwoAddressALU(in.Op) {
				ci.Src1 = dScratch
			}
		}
	}

	e.push(ci)

	if spillDef {
		if dFP {
			e.spillStoreFP(dScratch, dLoc, e.alloc.vsz[d])
		} else {
			e.spillStoreInt(dScratch, dLoc)
		}
	}
	return nil
}

func log2u(s uint8) int {
	n := 0
	for s > 1 {
		s >>= 1
		n++
	}
	return n
}

// emitProgram lowers the allocated machine function into final code with
// layout.
func emitProgram(f *mFunc, fs isa.FeatureSet, alloc *allocation, name string, compact bool, tgt *isa.Target) (*code.Program, error) {
	// The program is about one instruction per machine instruction and
	// two branches per block; spill code adds some.
	n := 2 * len(f.blocks)
	for _, b := range f.blocks {
		n += len(b.instrs)
	}
	e := &emitter{f: f, fs: fs, alloc: alloc, out: make([]code.Instr, 0, n+n/4),
		start: make(map[*mBlock]int, len(f.blocks)), stats: &f.stats}
	for bi, b := range f.blocks {
		e.start[b] = len(e.out)
		for i := range b.instrs {
			if b.instrs[i].Op == code.NOP {
				continue
			}
			if err := e.emitInstr(&b.instrs[i]); err != nil {
				return nil, fmt.Errorf("%s/%s: %w", f.name, b.name, err)
			}
		}
		var next *mBlock
		if bi+1 < len(f.blocks) {
			next = f.blocks[bi+1]
		}
		switch b.term.Kind {
		case termJcc:
			j := cInstr(code.JCC, 0)
			j.CC = b.term.CC
			j.TakenProb = b.term.Prob
			e.fix = append(e.fix, fixup{idx: len(e.out), target: b.term.Taken})
			e.push(j)
			fall := f.fallTarget(b)
			if fall != nil && fall != next {
				jm := cInstr(code.JMP, 0)
				e.fix = append(e.fix, fixup{idx: len(e.out), target: fall})
				e.push(jm)
			}
		case termJmp:
			if b.term.Taken != next {
				jm := cInstr(code.JMP, 0)
				e.fix = append(e.fix, fixup{idx: len(e.out), target: b.term.Taken})
				e.push(jm)
			}
		case termRet:
			r := cInstr(code.RET, 0)
			if v := b.term.Ret; v != noVR {
				l := alloc.locs[v]
				if l.kind == locPhys {
					r.Src1 = l.phys
				} else {
					pool := newScratchPool(alloc.intScratch)
					s, err := e.refillInt(l, pool)
					if err != nil {
						return nil, err
					}
					r.Src1 = s
				}
			}
			e.push(r)
		case termNone:
			// fallthrough to next block
		}
	}
	for _, fx := range e.fix {
		tgt, ok := e.start[fx.target]
		if !ok {
			return nil, fmt.Errorf("%s: branch to removed block %s", f.name, fx.target.name)
		}
		e.out[fx.idx].Target = int32(tgt)
	}
	p := &code.Program{Name: name, FS: fs, Target: tgt.ProgTarget(), Instrs: e.out,
		Pool: f.pool, CompactEncoding: compact, Stats: f.stats}
	// Peephole: the per-instruction spill discipline emits `st s -> slot`
	// after every spilled def and `ld s <- slot` before every spilled use,
	// so back-to-back def/use of one vreg leaves a same-register
	// store/reload pair behind. The scanner is the verifier's own, so the
	// peephole removes exactly what the spillpair rule would flag and
	// clean output stays finding-free by construction.
	p.Stats.ElidedReloads = check.ElideRedundantReloads(p)
	// Target legalization runs after the peephole (which matches the
	// absolute-addressed spill pattern emitted above) and before layout, so
	// the encoder only ever sees target-legal instructions.
	if err := legalizeTarget(p, tgt, alloc); err != nil {
		return nil, fmt.Errorf("%s: %w", f.name, err)
	}
	if err := encoding.Layout(p, code.CodeBase); err != nil {
		return nil, err
	}
	p.Stats.StaticInstrs = len(p.Instrs)
	p.Stats.CodeBytes = p.Size
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}
