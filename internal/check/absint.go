package check

// Abstract interpretation over the recovered CFG. The framework is a small
// worklist fixpoint engine parameterized by a lattice; it is instantiated
// twice in this package: constant/value-range propagation (constDomain,
// feeding the branch/memrange/deadblock rules) and must-reaching spill
// stores (spillMustDomain, feeding the stackjoin rule).
//
// Termination argument: states are joined monotonically (JoinInto only
// moves up the lattice and reports whether anything changed), every chain
// in each domain is finite (registers go const → interval → top; flag state
// goes known → unknown; spill-slot bits only clear), and after widenAfter
// visits to a block the join widens unstable facts straight to top. The
// sweep revisits blocks only while something changed, so the fixpoint is
// reached in at most O(height × blocks) block visits.
//
// Unreachable blocks are excluded entirely: they are never visited and
// contribute no state at joins, so dead code cannot produce spurious
// join-point facts (the deadblock rule owns reporting them).

import (
	"math"
	"slices"

	"compisa/internal/code"
)

// widenAfter is the number of in-state changes a block tolerates before
// joins start widening unstable facts to top.
const widenAfter = 4

// lattice is one abstract domain over program states of type S (a pointer
// type in both instantiations; Transfer and JoinInto mutate in place).
type lattice[S any] interface {
	// Entry is the state at program entry.
	Entry() S
	// Clone returns an independent copy of s.
	Clone(s S) S
	// CopyInto overwrites dst with src, reusing dst's storage.
	CopyInto(dst, src S)
	// JoinInto merges src into dst (moving dst up the lattice only) and
	// reports whether dst changed. With widen set, unstable facts jump to
	// top instead of climbing one step at a time.
	JoinInto(dst, src S, widen bool) bool
	// Transfer applies instruction idx to s in place.
	Transfer(s S, idx int, in *code.Instr)
}

// interpret runs the worklist fixpoint, sweeping the reachable blocks in
// the given reverse postorder, and returns the per-block in-states plus a
// has-state mask (false for blocks never reached: unreachable blocks, or
// everything when the program is empty). Out-states are not returned;
// rules re-run Transfer from a copy of the in-state when they need
// mid-block facts. A block's out-state is allocated on its first
// visit and overwritten in place on every later one.
func interpret[S any](p *code.Program, g *CFG, rpo []int, lat lattice[S]) ([]S, []bool) {
	nb := len(g.Blocks)
	ins := make([]S, nb)
	hasIn := make([]bool, nb)
	outs := make([]S, nb)
	hasOut := make([]bool, nb)
	if nb == 0 {
		return ins, hasIn
	}
	visits := make([]int, nb)
	flow := func(b int) {
		if hasOut[b] {
			lat.CopyInto(outs[b], ins[b])
		} else {
			outs[b], hasOut[b] = lat.Clone(ins[b]), true
		}
		for i := g.Blocks[b].Start; i < g.Blocks[b].End; i++ {
			lat.Transfer(outs[b], i, &p.Instrs[i])
		}
	}
	ins[0], hasIn[0] = lat.Entry(), true
	flow(0)
	for changed := true; changed; {
		changed = false
		for _, b := range rpo {
			if b == 0 && len(g.Blocks[0].Preds) == 0 {
				continue // entry state is fixed when nothing loops back
			}
			widen := visits[b] >= widenAfter
			inChanged := false
			for _, pb := range g.Blocks[b].Preds {
				if !hasOut[pb] {
					continue // not yet flowed (or unreachable): no contribution
				}
				if !hasIn[b] {
					ins[b], hasIn[b] = lat.Clone(outs[pb]), true
					inChanged = true
					continue
				}
				if lat.JoinInto(ins[b], outs[pb], widen) {
					inChanged = true
				}
			}
			if !hasIn[b] || (!inChanged && hasOut[b]) {
				continue
			}
			visits[b]++
			flow(b)
			changed = true
		}
	}
	return ins, hasIn
}

// ---------------------------------------------------------------------------
// Constant / value-range domain.
// ---------------------------------------------------------------------------

// ival is an unsigned, non-wrapping interval over the 64-bit register value
// space. Registers always hold their full zero-extended contents (the
// executor's writeInt zero-extends narrow writes), so unsigned intervals
// are exact for the facts the rules consume.
type ival struct{ Lo, Hi uint64 }

var topIval = ival{0, math.MaxUint64}

func (v ival) isConst() bool { return v.Lo == v.Hi }
func (v ival) isTop() bool   { return v.Lo == 0 && v.Hi == math.MaxUint64 }

func constIval(c uint64) ival { return ival{c, c} }

// sizedTop is the interval of every value representable at operand size sz
// (what a masked write can produce).
func sizedTop(sz uint8) ival { return ival{0, code.SzMask(sz)} }

// maskIval is the abstract counterpart of v & code.SzMask(sz): exact when the
// whole interval fits under the mask, the full masked range otherwise
// (masking wraps, so a straddling interval loses its ordering).
func maskIval(v ival, sz uint8) ival {
	if m := code.SzMask(sz); v.Hi > m {
		return ival{0, m}
	}
	return v
}

func addIval(a, b ival) ival {
	hi := a.Hi + b.Hi
	if hi < a.Hi {
		return topIval // unsigned overflow: ordering lost
	}
	return ival{a.Lo + b.Lo, hi}
}

func subIval(a, b ival) ival {
	if a.Lo < b.Hi {
		return topIval // could wrap below zero
	}
	return ival{a.Lo - b.Hi, a.Hi - b.Lo}
}

func mulIvalConst(v ival, c uint64) ival {
	if c == 0 {
		return ival{}
	}
	if v.Hi > math.MaxUint64/c {
		return topIval
	}
	return ival{v.Lo * c, v.Hi * c}
}

func joinIval(a, b ival) ival {
	if b.Lo < a.Lo {
		a.Lo = b.Lo
	}
	if b.Hi > a.Hi {
		a.Hi = b.Hi
	}
	return a
}

// absFlags is the abstract condition-code state: f when known is set,
// unknown otherwise. Flags become known only when a flag-writing
// instruction runs unpredicated with fully constant operands, and then they
// are computed by code's flag functions, the ones the executor runs.
type absFlags struct {
	known bool
	f     code.Flags
}

func knownFlags(f code.Flags) absFlags { return absFlags{known: true, f: f} }

// constState is the constant/value-range abstract state: one interval per
// integer register plus the flags. FP/SIMD registers are not tracked (no
// rule or fact consumes them). reg covers the registers up to the highest
// one the program names (see newConstDomain); every other register of the
// 64-entry file keeps its entry value, zero, since nothing reads or writes
// it, so leaving it out changes no fact.
type constState struct {
	reg   []ival
	flags absFlags
}

type constDomain struct {
	addrMask uint64 // MaxUint32 on 32-bit feature sets, like the executor
	nregs    int    // len(constState.reg)
}

func newConstDomain(p *code.Program) *constDomain {
	d := &constDomain{addrMask: math.MaxUint64}
	if p.FS.Width == 32 {
		d.addrMask = math.MaxUint32
	}
	for i := range p.Instrs {
		in := &p.Instrs[i]
		for _, r := range [...]code.Reg{in.Dst, in.Src1, in.Src2, in.Mem.Base, in.Mem.Index, in.Pred} {
			if int(r) < 64 && int(r) >= d.nregs {
				d.nregs = int(r) + 1
			}
		}
	}
	return d
}

// Entry: all registers hold zero (cpu.NewState zeroes the file; region
// inputs arrive via loads), flags unknown (nothing has set them — reading
// them first is udef's business, not ours).
func (d *constDomain) Entry() *constState {
	return &constState{reg: make([]ival, d.nregs)}
}

func (d *constDomain) Clone(s *constState) *constState {
	return &constState{reg: slices.Clone(s.reg), flags: s.flags}
}

func (d *constDomain) CopyInto(dst, src *constState) {
	copy(dst.reg, src.reg)
	dst.flags = src.flags
}

func (d *constDomain) JoinInto(dst, src *constState, widen bool) bool {
	changed := false
	for r := range dst.reg {
		j := joinIval(dst.reg[r], src.reg[r])
		if widen && j != dst.reg[r] {
			j = topIval
		}
		if j != dst.reg[r] {
			dst.reg[r] = j
			changed = true
		}
	}
	if dst.flags.known && dst.flags != src.flags {
		dst.flags = absFlags{}
		changed = true
	}
	return changed
}

// getReg reads a register's abstract value, tolerating malformed operands
// (NoReg or registers past the 64-entry file — the struct/depth rules
// report those; the domain just refuses to claim anything about them).
func (s *constState) getReg(r code.Reg) ival {
	if int(r) >= len(s.reg) {
		// Past the tracked registers: malformed, as every register the
		// program names is tracked.
		return topIval
	}
	return s.reg[r]
}

func (s *constState) setReg(r code.Reg, v ival) {
	if int(r) < len(s.reg) {
		s.reg[r] = v
	}
}

// absEA is the abstract effective address of a memory operand (mirrors
// cpu.State.ea, including the address mask).
func (d *constDomain) absEA(s *constState, m code.Mem) ival {
	acc := ival{}
	if m.Base != code.NoReg {
		acc = addIval(acc, s.getReg(m.Base))
	}
	if m.Index != code.NoReg {
		acc = addIval(acc, mulIvalConst(s.getReg(m.Index), uint64(m.Scale)))
	}
	if disp := int64(m.Disp); disp >= 0 {
		acc = addIval(acc, constIval(uint64(disp)))
	} else {
		acc = subIval(acc, constIval(uint64(-disp)))
	}
	if acc.Hi > d.addrMask {
		return ival{0, d.addrMask}
	}
	return acc
}

// intOp2 resolves the abstract second integer operand, mirroring the
// executor's intOp2 closure: immediate (masked), memory source (any value
// of the access size — loads are opaque), or register (masked).
func (d *constDomain) intOp2(s *constState, in *code.Instr) ival {
	switch {
	case in.HasImm:
		return constIval(uint64(in.Imm) & code.SzMask(in.Sz))
	case in.MemSrcALU():
		return sizedTop(in.Sz)
	default:
		return maskIval(s.getReg(in.Src2), in.Sz)
	}
}

func (d *constDomain) Transfer(s *constState, idx int, in *code.Instr) {
	// A predicated instruction may or may not commit: everything it could
	// write goes to top (sound: top covers join(old, new)).
	if in.Predicated() {
		var defs []int
		for _, def := range instrDefs(in, defs) {
			switch {
			case def == resFlags:
				s.flags = absFlags{}
			case def < resFPBase:
				s.setReg(code.Reg(def-resIntBase), topIval)
			}
		}
		return
	}
	sz := in.Sz
	switch in.Op {
	case code.MOV:
		if in.HasImm {
			s.setReg(in.Dst, constIval(uint64(in.Imm)&code.SzMask(sz)))
		} else {
			s.setReg(in.Dst, maskIval(s.getReg(in.Src1), sz))
		}

	case code.MOVSX:
		// uint64(int64(int32(uint32(v)))): exact on constants; an interval
		// survives only when every value has bit 31 clear and no high bits.
		if v := s.getReg(in.Src1); v.isConst() {
			s.setReg(in.Dst, constIval(uint64(int64(int32(uint32(v.Lo))))))
		} else if v.Hi <= 0x7fff_ffff {
			s.setReg(in.Dst, v)
		} else {
			s.setReg(in.Dst, topIval)
		}

	case code.LEA:
		s.setReg(in.Dst, maskIval(d.absEA(s, in.Mem), sz))

	case code.LD:
		// Loads are opaque but zero-extend: the result is bounded by the
		// access size (the executor writes with width 8 after Mem.Read).
		s.setReg(in.Dst, sizedTop(sz))

	case code.ST, code.NOP, code.JMP, code.RET, code.JCC:
		// No integer-register or flag effects (JCC reads flags only).

	case code.ADD, code.ADC:
		a := maskIval(s.getReg(in.Src1), sz)
		b := d.intOp2(s, in)
		if in.Op == code.ADD && a.isConst() && b.isConst() {
			r := a.Lo + b.Lo
			s.flags = knownFlags(code.AddFlags(a.Lo, b.Lo, r, false, sz))
			s.setReg(in.Dst, constIval(r&code.SzMask(sz)))
		} else if in.Op == code.ADC && a.isConst() && b.isConst() && s.flags.known {
			cin := s.flags.f.CF
			r := a.Lo + b.Lo
			if cin {
				r++
			}
			s.flags = knownFlags(code.AddFlags(a.Lo, b.Lo, r, cin, sz))
			s.setReg(in.Dst, constIval(r&code.SzMask(sz)))
		} else {
			s.setReg(in.Dst, maskIval(addIval(a, b), sz))
			s.flags = absFlags{}
		}

	case code.SUB, code.SBB:
		a := maskIval(s.getReg(in.Src1), sz)
		b := d.intOp2(s, in)
		if in.Op == code.SUB && a.isConst() && b.isConst() {
			r := a.Lo - b.Lo
			s.flags = knownFlags(code.SubFlags(a.Lo, b.Lo, r, false, sz))
			s.setReg(in.Dst, constIval(r&code.SzMask(sz)))
		} else if in.Op == code.SBB && a.isConst() && b.isConst() && s.flags.known {
			bin := s.flags.f.CF
			r := a.Lo - b.Lo
			if bin {
				r--
			}
			s.flags = knownFlags(code.SubFlags(a.Lo, b.Lo, r, bin, sz))
			s.setReg(in.Dst, constIval(r&code.SzMask(sz)))
		} else {
			s.setReg(in.Dst, maskIval(subIval(a, b), sz))
			s.flags = absFlags{}
		}

	case code.IMUL:
		a := maskIval(s.getReg(in.Src1), sz)
		b := d.intOp2(s, in)
		if a.isConst() && b.isConst() {
			r := (a.Lo * b.Lo) & code.SzMask(sz)
			s.flags = knownFlags(code.LogicFlags(r, sz)) // the executor models IMUL this way
			s.setReg(in.Dst, constIval(r))
		} else {
			s.setReg(in.Dst, sizedTop(sz))
			s.flags = absFlags{}
		}

	case code.AND, code.OR, code.XOR:
		a := maskIval(s.getReg(in.Src1), sz)
		b := d.intOp2(s, in)
		if a.isConst() && b.isConst() {
			var r uint64
			switch in.Op {
			case code.AND:
				r = a.Lo & b.Lo
			case code.OR:
				r = a.Lo | b.Lo
			default:
				r = a.Lo ^ b.Lo
			}
			r &= code.SzMask(sz)
			s.flags = knownFlags(code.LogicFlags(r, sz))
			s.setReg(in.Dst, constIval(r))
		} else {
			if in.Op == code.AND {
				// AND never exceeds either operand.
				hi := a.Hi
				if b.Hi < hi {
					hi = b.Hi
				}
				s.setReg(in.Dst, ival{0, hi})
			} else {
				s.setReg(in.Dst, sizedTop(sz))
			}
			s.flags = absFlags{}
		}

	case code.SHL, code.SHR, code.SAR:
		a := maskIval(s.getReg(in.Src1), sz)
		k := uint(in.Imm)
		switch {
		case a.isConst():
			var r uint64
			switch in.Op {
			case code.SHL:
				r = a.Lo << k
			case code.SHR:
				r = a.Lo >> k
			default:
				if sz == 4 {
					r = uint64(uint32(int32(uint32(a.Lo)) >> k))
				} else {
					r = uint64(int64(a.Lo) >> k)
				}
			}
			r &= code.SzMask(sz)
			s.flags = knownFlags(code.LogicFlags(r, sz))
			s.setReg(in.Dst, constIval(r))
		case in.Op == code.SHR:
			s.setReg(in.Dst, ival{a.Lo >> k, a.Hi >> k})
			s.flags = absFlags{}
		default:
			s.setReg(in.Dst, sizedTop(sz))
			s.flags = absFlags{}
		}

	case code.CMP:
		a := maskIval(s.getReg(in.Src1), sz)
		b := d.intOp2(s, in)
		if a.isConst() && b.isConst() {
			s.flags = knownFlags(code.SubFlags(a.Lo, b.Lo, a.Lo-b.Lo, false, sz))
		} else {
			s.flags = absFlags{}
		}

	case code.TEST:
		a := maskIval(s.getReg(in.Src1), sz)
		b := d.intOp2(s, in)
		if a.isConst() && b.isConst() {
			s.flags = knownFlags(code.LogicFlags(a.Lo&b.Lo, sz))
		} else {
			s.flags = absFlags{}
		}

	case code.SETCC:
		if s.flags.known {
			var v uint64
			if s.flags.f.Cond(in.CC) {
				v = 1
			}
			s.setReg(in.Dst, constIval(v))
		} else {
			s.setReg(in.Dst, ival{0, 1})
		}

	case code.CMOVCC:
		var v ival
		if in.HasMem {
			v = sizedTop(sz) // the load always happens; the value is opaque
		} else {
			v = maskIval(s.getReg(in.Src1), sz)
		}
		if s.flags.known {
			if s.flags.f.Cond(in.CC) {
				s.setReg(in.Dst, v)
			}
		} else {
			s.setReg(in.Dst, joinIval(s.getReg(in.Dst), v))
		}

	case code.FCMP:
		s.flags = absFlags{} // FP values are not tracked

	case code.CVTFI:
		s.setReg(in.Dst, sizedTop(4)) // writeInt(..., 4) of an opaque int32

	default:
		// FP/SIMD ops touch only the untracked FP file.
	}
}

// ---------------------------------------------------------------------------
// Must-reaching spill stores (the stack-height domain).
// ---------------------------------------------------------------------------

// spillMustState tracks which spill slots are definitely initialized on
// every path reaching this point.
type spillMustState struct {
	stored BitSet
}

type spillMustDomain struct {
	slots map[int32]int
}

// Entry: no slot is initialized.
func (d *spillMustDomain) Entry() *spillMustState {
	return &spillMustState{stored: NewBitSet(len(d.slots))}
}

func (d *spillMustDomain) Clone(s *spillMustState) *spillMustState {
	return &spillMustState{stored: s.stored.Copy()}
}

func (d *spillMustDomain) CopyInto(dst, src *spillMustState) { copy(dst.stored, src.stored) }

// JoinInto intersects: a slot survives the join only when every incoming
// path stored it. Bits only clear, so the chain is finite and no widening
// is needed.
func (d *spillMustDomain) JoinInto(dst, src *spillMustState, widen bool) bool {
	changed := false
	for i := range dst.stored {
		n := dst.stored[i] & src.stored[i]
		if n != dst.stored[i] {
			dst.stored[i] = n
			changed = true
		}
	}
	return changed
}

// Transfer: a spill store initializes its slot. A predicated store counts
// too — if-converted code stores under a predicate and reloads under the
// same predicate, and treating the store as conditional would flag every
// such pair; the discipline verified here is "the compiler planned an
// initialization on this path", not a dynamic-execution proof.
func (d *spillMustDomain) Transfer(s *spillMustState, idx int, in *code.Instr) {
	if in.Op != code.ST && in.Op != code.FST && in.Op != code.VST {
		return
	}
	if addr, ok := spillSlotRef(in); ok {
		s.stored.Set(d.slots[addr])
	}
}
