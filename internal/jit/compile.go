//go:build amd64 && linux

package jit

import (
	"fmt"

	"compisa/internal/code"
	"compisa/internal/cpu"
)

// The template emitter: one native code block per instruction, laid out in
// program order so fallthrough is free, driven by the same predecoded
// tables the interpreter dispatches on. Every template follows the same
// skeleton:
//
//	refill guard   (chunk allowance in rbx exhausted -> exitResume)
//	event prewrite (Idx/PC/Len/Uops stored, mem/taken fields zeroed)
//	predicate gate (skip to a PredOff commit when the predicate fails)
//	semantics      (may exit through the deopt stub before any side effect)
//	commit         (advance the event cursor, decrement the allowance)
//
// Deopt discipline: a template either commits exactly one event slot and
// all of its architectural effects, or exits with no effects at all. That
// is what lets the driver hand the instruction to cpu.StepOne and resume
// natively with nothing to roll back.

// module is one compiled program: executable pages plus per-instruction
// entry offsets. Modules are immutable after compile; refs/dead implement
// cache eviction without unmapping pages under a running user.
type module struct {
	key    progKey
	pages  *execPages
	entry  uintptr
	off    []int32
	static []bool // statically-deopt templates (unsupported shape)
}

type emitter struct {
	a       asm
	pd      *cpu.Predecoded
	p       *code.Program
	n       int
	ins     []*label // n+1: per-instruction entries plus the off-the-end exit
	refill  *label   // exitResume stub; expects the resume index in eax
	deopt   *label   // exitDeopt stub; expects the instruction index in eax
	epi     *label
	static  []bool
	width32 bool
	events  bool // record event slots (false: tally counters only)
}

func aluWidth(sz uint8) opsz {
	switch sz {
	case 1:
		return sz8b
	case 4:
		return sz32
	default:
		return sz64
	}
}

func intDisp(r code.Reg) int32 { return int32(r) * 8 }

func fpDisp(r code.Reg) int32 { return fpOff + int32(r)*16 }

// compileProgram translates pd into a native module. With events=false the
// templates skip every event-slot store (prewrite, taken/pred bytes, memory
// fields) and keep only the tally counters — the variant the driver runs
// when no event consumer is attached.
func compileProgram(key progKey, pd *cpu.Predecoded, events bool) (*module, error) {
	p := pd.P
	n := len(p.Instrs)
	e := &emitter{
		pd: pd, p: p, n: n,
		ins:     make([]*label, n+1),
		refill:  newLabel(),
		deopt:   newLabel(),
		epi:     newLabel(),
		static:  make([]bool, n),
		width32: p.FS.Width == 32,
		events:  events,
	}
	for i := range e.ins {
		e.ins[i] = newLabel()
	}
	for i := 0; i < n; i++ {
		e.static[i] = !e.supported(i)
	}

	e.emitEntry()
	for i := 0; i < n; i++ {
		e.emitInstr(i)
	}
	// Falling off the end (or branching to index n) resumes the driver,
	// which reports the interpreter's pc-out-of-range error.
	e.a.bind(e.ins[n])
	e.a.movRI(rax, uint64(uint32(n)))
	e.a.jmp(e.refill)
	e.emitStubs()

	for i := 0; i <= n; i++ {
		if e.ins[i].pos < 0 || len(e.ins[i].refs) != 0 {
			return nil, fmt.Errorf("jit: unbound label for instruction %d", i)
		}
	}
	pages, err := newExecPages(e.a.b)
	if err != nil {
		return nil, err
	}
	off := make([]int32, n)
	for i := 0; i < n; i++ {
		off[i] = e.ins[i].pos
	}
	return &module{key: key, pages: pages, entry: pages.base(), off: off, static: e.static}, nil
}

// emitEntry emits the entry thunk at offset 0: load the pinned registers
// from the jitCtx (in rdi, placed there by the trampoline) and jump to the
// resume address.
func (e *emitter) emitEntry() {
	a := &e.a
	a.movRR(rbp, rdi)
	a.movRM(sz64, r15, rbp, ctxOff.state)
	a.movRM(sz64, r14, rbp, ctxOff.events)
	a.movRM(sz64, rbx, rbp, ctxOff.remaining)
	a.movRM(sz64, r13, rbp, ctxOff.dataHost)
	a.movRM(sz64, r12, rbp, ctxOff.spillHost)
	a.jmpM(rbp, ctxOff.resume)
}

func (e *emitter) emitStubs() {
	a := &e.a
	a.bind(e.refill)
	a.movMR(sz32, rbp, ctxOff.exitIdx, rax)
	a.movMI32(false, rbp, ctxOff.exitKind, exitResume)
	a.jmp(e.epi)
	a.bind(e.deopt)
	a.movMR(sz32, rbp, ctxOff.exitIdx, rax)
	a.movMI32(false, rbp, ctxOff.exitKind, exitDeopt)
	a.bind(e.epi)
	a.movMR(sz64, rbp, ctxOff.remaining, rbx)
	a.movMR(sz64, rbp, ctxOff.events, r14)
	a.retn()
}

// supported reports whether instruction i has a native template; anything
// else becomes a static deopt (the unsupported-opcode guard).
func (e *emitter) supported(i int) bool {
	in := &e.p.Instrs[i]
	if !e.pd.Interpretable(i) {
		return false
	}
	vi := func(r code.Reg) bool { return r < 64 }
	vf := func(r code.Reg) bool { return r < 16 }
	if in.Pred != code.NoReg && !vi(in.Pred) {
		return false
	}
	vm := func() bool {
		if !in.HasMem {
			return false
		}
		if in.Mem.Base != code.NoReg && !vi(in.Mem.Base) {
			return false
		}
		if in.Mem.Index != code.NoReg && !vi(in.Mem.Index) {
			return false
		}
		return true
	}
	isz := func(ok ...uint8) bool {
		for _, s := range ok {
			if in.Sz == s {
				return true
			}
		}
		return false
	}
	// The second integer operand of an ALU-class op.
	op2 := func() bool {
		switch {
		case in.HasImm:
			return true
		case in.MemSrcALU():
			return vm() && isz(1, 4, 8)
		default:
			return vi(in.Src2)
		}
	}
	switch in.Op {
	case code.NOP:
		return true
	case code.MOV:
		return vi(in.Dst) && (in.HasImm || vi(in.Src1)) && isz(1, 4, 8)
	case code.MOVSX:
		return vi(in.Dst) && vi(in.Src1)
	case code.LEA:
		return vi(in.Dst) && vm() && isz(1, 4, 8)
	case code.LD:
		return vi(in.Dst) && vm() && isz(1, 2, 4, 8)
	case code.ST:
		return vi(in.Src1) && vm() && isz(1, 2, 4, 8)
	case code.ADD, code.ADC, code.SUB, code.SBB, code.AND, code.OR, code.XOR, code.IMUL:
		return vi(in.Dst) && vi(in.Src1) && isz(1, 4, 8) && op2()
	case code.SHL, code.SHR, code.SAR:
		if !vi(in.Dst) || !vi(in.Src1) || !isz(1, 4, 8) {
			return false
		}
		// Counts the hardware would mask differently from Go deopt.
		lim := int64(32)
		if in.Sz == 8 {
			lim = 64
		}
		return in.Imm >= 0 && in.Imm < lim
	case code.CMP:
		return vi(in.Src1) && isz(1, 4, 8) && op2()
	case code.TEST:
		return vi(in.Src1) && isz(1, 4, 8) && op2()
	case code.SETCC:
		return vi(in.Dst)
	case code.CMOVCC:
		if !vi(in.Dst) {
			return false
		}
		if in.HasMem {
			return vm() && isz(1, 2, 4, 8)
		}
		return vi(in.Src1) && isz(1, 4, 8)
	case code.JCC, code.JMP:
		return true
	case code.RET:
		return in.Src1 == code.NoReg || vi(in.Src1)
	case code.FMOV:
		return vf(in.Dst) && vf(in.Src1)
	case code.FLD:
		return vf(in.Dst) && vm() && isz(4, 8)
	case code.FST:
		return vf(in.Src1) && vm() && isz(4, 8)
	case code.FADD, code.FSUB, code.FMUL, code.FDIV:
		if !vf(in.Dst) || !vf(in.Src1) || !isz(4, 8) {
			return false
		}
		if in.MemSrcALU() {
			return vm()
		}
		return vf(in.Src2)
	case code.FCMP:
		return vf(in.Src1) && vf(in.Src2) && isz(4, 8)
	case code.CVTIF:
		return vf(in.Dst) && vi(in.Src1) && isz(4, 8)
	case code.CVTFI:
		return vi(in.Dst) && vf(in.Src1) && isz(4, 8)
	case code.VLD:
		return vf(in.Dst) && vm()
	case code.VST:
		return vf(in.Src1) && vm()
	case code.VADDF, code.VSUBF, code.VMULF, code.VADDI, code.VSUBI, code.VMULI:
		if !vf(in.Dst) || !vf(in.Src1) {
			return false
		}
		if in.MemSrcALU() {
			return vm() && in.Sz == 16
		}
		return vf(in.Src2)
	case code.VSPLAT, code.VRSUM:
		return vf(in.Dst) && vf(in.Src1)
	}
	return false
}

// ---- template building blocks ----

// commit retires instruction i: it bumps the chunk tally counters every
// committed path shares (micro-ops always; branches for every committed
// JCC, predicated-off or not, matching the interpreter's loop bottom),
// advances the event cursor one slot, and burns one unit of chunk
// allowance.
func (e *emitter) commit(i int) {
	e.a.aluMI(0, rbp, ctxOff.uops, int32(e.pd.UopCount(i)))
	if e.p.Instrs[i].Op == code.JCC {
		e.a.aluMI(0, rbp, ctxOff.branches, 1)
	}
	if e.events {
		e.a.aluRI(0, sz64, r14, evOff.size) // add r14, 32
	}
	e.a.decR(rbx)
}

// exitTo loads idx into eax and jumps to the given stub.
func (e *emitter) exitTo(stub *label, idx int32) {
	e.a.movRI(rax, uint64(uint32(idx)))
	e.a.jmp(stub)
}

// jmpTarget transfers to instruction t, or resumes the driver for an
// out-of-range target so it reports the interpreter's pc error.
func (e *emitter) jmpTarget(t int32) {
	if t >= 0 && int(t) <= e.n {
		e.a.jmp(e.ins[t])
		return
	}
	e.exitTo(e.refill, t)
}

// loadInt fetches guest integer register r into dst.
func (e *emitter) loadInt(dst gpr, r code.Reg) { e.a.movRM(sz64, dst, r15, intDisp(r)) }

// storeInt writes dst's full 64 bits to guest integer register r.
func (e *emitter) storeInt(r code.Reg, src gpr) { e.a.movMR(sz64, r15, intDisp(r), src) }

// maskTo truncates reg to sz with x86 zero-extension semantics.
func (e *emitter) maskTo(sz uint8, r gpr) {
	switch sz {
	case 1:
		e.a.movzxBRR(r, r)
	case 4:
		e.a.mov32RR(r, r)
	}
}

// emitEA computes the effective address of in.Mem into rdx (clobbers rax).
func (e *emitter) emitEA(m code.Mem) {
	a := &e.a
	if m.Base != code.NoReg {
		e.loadInt(rdx, m.Base)
	} else {
		a.aluRR(opXOR, sz32, rdx, rdx)
	}
	if m.Index != code.NoReg {
		e.loadInt(rax, m.Index)
		if m.Scale != 1 {
			a.imulRRI(rax, rax, int32(m.Scale))
		}
		a.aluRR(opADD, sz64, rdx, rax)
	}
	if m.Disp != 0 {
		a.aluRI(0, sz64, rdx, m.Disp)
	}
	if e.width32 {
		a.mov32RR(rdx, rdx)
	}
}

// translate maps the guest address in rdx to a host address in rax via the
// four aliased windows; a miss deopts instruction i (memory-window guard).
// rdx is preserved.
func (e *emitter) translate(i int) {
	a := &e.a
	done := newLabel()
	leg := func(base uint32, maxOff int32, addHost func()) *label {
		miss := newLabel()
		a.movRR(rax, rdx)
		a.aluRI(5, sz64, rax, int32(base)) // sub rax, window base
		a.aluRM(opCMP, sz64, rax, rbp, maxOff)
		a.jcc(hwA, miss)
		addHost()
		a.jmp(done)
		a.bind(miss)
		return miss
	}
	leg(code.DataBase, ctxOff.dataMax, func() { a.aluRR(opADD, sz64, rax, r13) })
	leg(code.SpillBase, ctxOff.spillMax, func() { a.aluRR(opADD, sz64, rax, r12) })
	leg(code.ContextBase, ctxOff.ctxbMax, func() { a.aluRM(opADD, sz64, rax, rbp, ctxOff.ctxbHost) })
	leg(code.PoolBase, ctxOff.poolMax, func() { a.aluRM(opADD, sz64, rax, rbp, ctxOff.poolHost) })
	e.exitTo(e.deopt, int32(i))
	a.bind(done)
}

// evMem records the event's memory-access fields — address from rdx, size
// and load/store truth as immediates — and bumps the matching tally. The
// tally is safe to bump here because evMem always follows the body's only
// translate guard: once it runs, the event is guaranteed to commit.
func (e *emitter) evMem(isStore bool, sz uint8) {
	if isStore {
		e.a.aluMI(0, rbp, ctxOff.stores, 1)
	} else {
		e.a.aluMI(0, rbp, ctxOff.loads, 1)
	}
	if !e.events {
		return
	}
	e.a.movMR(sz64, r14, evOff.memAddr, rdx)
	v := uint32(sz)
	if isStore {
		v |= 1 << 16
	} else {
		v |= 1 << 8
	}
	e.a.movMI32(true, r14, evOff.memSz, v)
}

// loadSized loads sz bytes from [rax] into dst, zero-extended.
func (e *emitter) loadSized(dst gpr, sz uint8) {
	switch sz {
	case 1:
		e.a.movzxBRM(dst, rax, 0)
	case 2:
		e.a.movzxWRM(dst, rax, 0)
	case 4:
		e.a.movRM(sz32, dst, rax, 0)
	default:
		e.a.movRM(sz64, dst, rax, 0)
	}
}

// storeSized stores the low sz bytes of src to [rax].
func (e *emitter) storeSized(sz uint8, src gpr) {
	switch sz {
	case 1:
		e.a.movMR(sz8b, rax, 0, src)
	case 2:
		e.a.movMR16(rax, 0, src)
	case 4:
		e.a.movMR(sz32, rax, 0, src)
	default:
		e.a.movMR(sz64, rax, 0, src)
	}
}

// intOp2 materializes the second integer operand into rcx, masked to sz
// (immediate, folded memory load — which records event fields — or
// register).
func (e *emitter) intOp2(i int, in *code.Instr) {
	switch {
	case in.HasImm:
		e.a.movRI(rcx, uint64(in.Imm)&code.SzMask(in.Sz))
	case in.MemSrcALU():
		e.emitEA(in.Mem)
		e.translate(i)
		e.evMem(false, in.Sz)
		e.loadSized(rcx, in.Sz)
	default:
		e.loadInt(rcx, in.Src2)
		e.maskTo(in.Sz, rcx)
	}
}

// loadOp1 materializes the first operand into rax, masked to sz.
func (e *emitter) loadOp1(in *code.Instr) {
	e.loadInt(rax, in.Src1)
	e.maskTo(in.Sz, rax)
}

// Flag byte displacements within the jitCtx.
func (e *emitter) zfD() int32 { return ctxOff.flags + 0 }
func (e *emitter) sfD() int32 { return ctxOff.flags + 1 }
func (e *emitter) ofD() int32 { return ctxOff.flags + 2 }
func (e *emitter) cfD() int32 { return ctxOff.flags + 3 }

// flagsHW captures the hardware flags of the last flag-setting op into the
// guest flag bytes (matching code.AddFlags/SubFlags exactly, since those
// replicate hardware formulas).
func (e *emitter) flagsHW() {
	e.a.setccM(hwE, rbp, e.zfD())
	e.a.setccM(hwS, rbp, e.sfD())
	e.a.setccM(hwO, rbp, e.ofD())
	e.a.setccM(hwB, rbp, e.cfD())
}

// logicFlags sets guest flags from the value in rax at width sz with
// CF=OF=0 (code.LogicFlags): a TEST refreshes ZF/SF and
// clears CF/OF in one go.
func (e *emitter) logicFlags(sz uint8) {
	e.a.testRR(aluWidth(sz), rax, rax)
	e.flagsHW()
}

// condToAL materializes the guest condition cc as 0/1 in al.
func (e *emitter) condToAL(cc code.CC) {
	a := &e.a
	ld := func(d int32) { a.movRM(sz8b, rax, rbp, d) }
	xor1 := func() { a.aluRI8only(6, rax, 1) }
	switch cc {
	case code.CCEQ:
		ld(e.zfD())
	case code.CCNE:
		ld(e.zfD())
		xor1()
	case code.CCLT:
		ld(e.sfD())
		a.aluRM(opXOR, sz8b, rax, rbp, e.ofD())
	case code.CCGE:
		ld(e.sfD())
		a.aluRM(opXOR, sz8b, rax, rbp, e.ofD())
		xor1()
	case code.CCLE:
		ld(e.sfD())
		a.aluRM(opXOR, sz8b, rax, rbp, e.ofD())
		a.aluRM(opOR, sz8b, rax, rbp, e.zfD())
	case code.CCGT:
		ld(e.sfD())
		a.aluRM(opXOR, sz8b, rax, rbp, e.ofD())
		a.aluRM(opOR, sz8b, rax, rbp, e.zfD())
		xor1()
	case code.CCB:
		ld(e.cfD())
	case code.CCAE:
		ld(e.cfD())
		xor1()
	case code.CCBE:
		ld(e.cfD())
		a.aluRM(opOR, sz8b, rax, rbp, e.zfD())
	case code.CCA:
		ld(e.cfD())
		a.aluRM(opOR, sz8b, rax, rbp, e.zfD())
		xor1()
	default:
		// Unknown condition: code.Flags.Cond returns false.
		a.aluRR(opXOR, sz32, rax, rax)
	}
}

// writeIntResult masks rax to sz and stores it to guest register dst
// (x86 writeInt semantics: narrow writes zero-extend).
func (e *emitter) writeIntResult(dst code.Reg, sz uint8) {
	e.maskTo(sz, rax)
	e.storeInt(dst, rax)
}

// storeFPScalar writes {rax, 0} to FP register dst.
func (e *emitter) storeFPScalar(dst code.Reg) {
	e.a.movMR(sz64, r15, fpDisp(dst), rax)
	e.a.movMI32(true, r15, fpDisp(dst)+8, 0)
}

// emitInstr emits the full template for instruction i.
func (e *emitter) emitInstr(i int) {
	a := &e.a
	in := &e.p.Instrs[i]
	a.bind(e.ins[i])

	// Refill guard: out of chunk allowance, resume the driver here.
	body := newLabel()
	a.testRR(sz64, rbx, rbx)
	a.jcc(hwNE, body)
	e.exitTo(e.refill, int32(i))
	a.bind(body)

	if e.static[i] {
		// Unsupported-opcode guard: no event, no effects.
		e.exitTo(e.deopt, int32(i))
		return
	}

	// Event prewrite. The qword stores at +8/+16/+24 also zero Taken,
	// MemAddr, MemSz/IsLoad/IsStore/PredOff and the struct padding, so a
	// committed slot never carries stale bytes from a previous chunk.
	if e.events {
		a.movMI32(false, r14, evOff.idx, uint32(i))
		a.movMI32(false, r14, evOff.pc, e.p.PC[i])
		a.movMI32(true, r14, evOff.length, uint32(e.pd.InstrLen(i))|uint32(e.pd.UopCount(i))<<8)
		a.movMI32(true, r14, evOff.memAddr, 0)
		a.movMI32(true, r14, evOff.memSz, 0)
	}

	// Predication gate.
	var predOff *label
	if in.Pred != code.NoReg {
		predOff = newLabel()
		a.movRM(sz32, rax, r15, intDisp(in.Pred))
		a.testRR(sz32, rax, rax)
		if in.PredSense {
			a.jcc(hwE, predOff) // active iff nonzero
		} else {
			a.jcc(hwNE, predOff)
		}
	}

	switch in.Op {
	case code.JCC:
		e.condToAL(in.CC)
		a.testRR(sz8b, rax, rax)
		taken := newLabel()
		a.jcc(hwNE, taken)
		e.commit(i) // fall-through: untaken
		a.jmp(e.ins[i+1])
		a.bind(taken)
		if e.events {
			a.movMI8(r14, evOff.taken, 1)
		}
		a.aluMI(0, rbp, ctxOff.taken, 1)
		e.commit(i)
		e.jmpTarget(in.Target)
		e.endPredOff(i, predOff)
		return

	case code.JMP:
		// Taken is recorded in the event but not tallied: the driver's
		// Taken counter only covers conditional branches.
		if e.events {
			a.movMI8(r14, evOff.taken, 1)
		}
		e.commit(i)
		e.jmpTarget(in.Target)
		e.endPredOff(i, predOff)
		return

	case code.RET:
		if in.Src1 != code.NoReg {
			e.loadInt(rax, in.Src1)
		} else {
			a.aluRR(opXOR, sz32, rax, rax)
		}
		a.movMR(sz64, rbp, ctxOff.ret, rax)
		if e.events {
			a.movMI8(r14, evOff.taken, 1)
		}
		e.commit(i)
		a.movMI32(false, rbp, ctxOff.exitKind, exitDone)
		a.jmp(e.epi)
		e.endPredOff(i, predOff)
		return
	}

	// Straight-line ops: body, then shared commit with the predicated-off
	// path.
	e.emitBody(i, in)
	if predOff != nil {
		past := newLabel()
		a.jmp(past)
		a.bind(predOff)
		if e.events {
			a.movMI8(r14, evOff.pred, 1)
		}
		a.aluMI(0, rbp, ctxOff.predoff, 1)
		a.bind(past)
	}
	e.commit(i)
}

// endPredOff closes a control-flow template: the predicated-off path
// commits its event and falls through to the next template.
func (e *emitter) endPredOff(i int, predOff *label) {
	if predOff == nil {
		return
	}
	e.a.bind(predOff)
	if e.events {
		e.a.movMI8(r14, evOff.pred, 1)
	}
	e.a.aluMI(0, rbp, ctxOff.predoff, 1)
	e.commit(i)
	// Fallthrough to e.ins[i+1], which is bound immediately after.
}

// emitBody emits the semantics of a straight-line instruction.
func (e *emitter) emitBody(i int, in *code.Instr) {
	a := &e.a
	sz := in.Sz
	switch in.Op {
	case code.NOP:

	case code.MOV:
		if in.HasImm {
			a.movRI(rax, uint64(in.Imm)&code.SzMask(sz))
		} else {
			e.loadInt(rax, in.Src1)
			e.maskTo(sz, rax)
		}
		e.writeIntResult(in.Dst, sz)

	case code.MOVSX:
		a.movsxdRM(rax, r15, intDisp(in.Src1))
		e.storeInt(in.Dst, rax)

	case code.LEA:
		e.emitEA(in.Mem)
		e.maskTo(sz, rdx)
		e.storeInt(in.Dst, rdx)

	case code.LD:
		e.emitEA(in.Mem)
		e.translate(i)
		e.evMem(false, sz)
		e.loadSized(rax, sz)
		e.storeInt(in.Dst, rax) // loads zero-extend to full width

	case code.ST:
		e.emitEA(in.Mem)
		e.translate(i)
		e.evMem(true, sz)
		e.loadInt(rcx, in.Src1)
		e.storeSized(sz, rcx)

	case code.ADD, code.ADC, code.SUB, code.SBB:
		w := aluWidth(sz)
		e.intOp2(i, in)
		e.loadOp1(in)
		switch in.Op {
		case code.ADD:
			a.aluRR(opADD, w, rax, rcx)
		case code.SUB:
			a.aluRR(opSUB, w, rax, rcx)
		case code.ADC, code.SBB:
			// Materialize the guest carry into hardware CF: dl is 0/1, so
			// dl+0xff carries out exactly when dl==1.
			a.movRM(sz8b, rdx, rbp, e.cfD())
			a.aluRI8only(0, rdx, 0xff)
			if in.Op == code.ADC {
				a.aluRR(opADC, w, rax, rcx)
			} else {
				a.aluRR(opSBB, w, rax, rcx)
			}
		}
		e.flagsHW()
		e.writeIntResult(in.Dst, sz)

	case code.AND, code.OR, code.XOR:
		w := aluWidth(sz)
		e.intOp2(i, in)
		e.loadOp1(in)
		switch in.Op {
		case code.AND:
			a.aluRR(opAND, w, rax, rcx)
		case code.OR:
			a.aluRR(opOR, w, rax, rcx)
		default:
			a.aluRR(opXOR, w, rax, rcx)
		}
		// Logic ops clear hardware CF/OF, matching code.LogicFlags.
		e.flagsHW()
		e.writeIntResult(in.Dst, sz)

	case code.IMUL:
		e.intOp2(i, in)
		e.loadOp1(in)
		switch sz {
		case 8:
			a.imulRR(sz64, rax, rcx)
		default:
			// sz 1 and 4 both compute in 32 bits on zero-extended
			// operands; the low sz bytes match the interpreter's
			// (a*b)&code.SzMask.
			a.imulRR(sz32, rax, rcx)
		}
		e.maskTo(sz, rax)
		e.logicFlags(sz) // IMUL's real CF/OF differ; the oracle uses code.LogicFlags
		e.writeIntResult(in.Dst, sz)

	case code.SHL, code.SHR, code.SAR:
		k := byte(in.Imm)
		var ext byte
		switch in.Op {
		case code.SHL:
			ext = 4
		case code.SHR:
			ext = 5
		default:
			ext = 7
		}
		e.loadOp1(in)
		switch sz {
		case 8:
			a.shiftRI(ext, sz64, rax, k)
		case 4:
			a.shiftRI(ext, sz32, rax, k)
		default:
			// Byte shifts run at 32 bits on the zero-extended value: SAR
			// then matches Go's arithmetic shift of a positive value, and
			// counts 8..31 correctly produce 0 after masking.
			a.shiftRI(ext, sz32, rax, k)
		}
		e.maskTo(sz, rax)
		e.logicFlags(sz) // shift CF/OF differ in hardware; oracle uses setLogicFlags
		e.writeIntResult(in.Dst, sz)

	case code.CMP:
		e.intOp2(i, in)
		e.loadOp1(in)
		a.aluRR(opCMP, aluWidth(sz), rax, rcx)
		e.flagsHW()

	case code.TEST:
		e.intOp2(i, in)
		e.loadOp1(in)
		a.testRR(aluWidth(sz), rax, rcx)
		e.flagsHW()

	case code.SETCC:
		e.condToAL(in.CC)
		a.movzxBRR(rax, rax)
		e.storeInt(in.Dst, rax)

	case code.CMOVCC:
		if in.HasMem {
			// The load always happens, even when the move does not.
			e.emitEA(in.Mem)
			e.translate(i)
			e.evMem(false, sz)
			e.loadSized(rcx, sz)
		} else {
			e.loadInt(rcx, in.Src1)
			e.maskTo(sz, rcx)
		}
		e.condToAL(in.CC)
		a.testRR(sz8b, rax, rax)
		skip := newLabel()
		a.jcc(hwE, skip)
		e.storeInt(in.Dst, rcx)
		a.bind(skip)

	case code.FMOV:
		a.movRM(sz64, rax, r15, fpDisp(in.Src1))
		a.movMR(sz64, r15, fpDisp(in.Dst), rax)
		a.movRM(sz64, rax, r15, fpDisp(in.Src1)+8)
		a.movMR(sz64, r15, fpDisp(in.Dst)+8, rax)

	case code.FLD:
		e.emitEA(in.Mem)
		e.translate(i)
		e.evMem(false, sz)
		e.loadSized(rax, sz)
		e.storeFPScalar(in.Dst)

	case code.FST:
		e.emitEA(in.Mem)
		e.translate(i)
		e.evMem(true, sz)
		a.movRM(sz64, rcx, r15, fpDisp(in.Src1))
		e.storeSized(sz, rcx)

	case code.FADD, code.FSUB, code.FMUL, code.FDIV:
		pre := byte(0xF3)
		if sz == 8 {
			pre = 0xF2
		}
		a.sseXM(pre, 0x10, xmm0, r15, fpDisp(in.Src1))
		if in.MemSrcALU() {
			e.emitEA(in.Mem)
			e.translate(i)
			e.evMem(false, sz)
			a.sseXM(pre, 0x10, xmm1, rax, 0)
		} else {
			a.sseXM(pre, 0x10, xmm1, r15, fpDisp(in.Src2))
		}
		var opb byte
		switch in.Op {
		case code.FADD:
			opb = 0x58
		case code.FSUB:
			opb = 0x5C
		case code.FMUL:
			opb = 0x59
		default:
			opb = 0x5E
		}
		a.sseXX(pre, opb, xmm0, xmm1)
		if sz == 4 {
			a.movdRX(rax, xmm0)
		} else {
			a.movqRX(rax, xmm0)
		}
		e.storeFPScalar(in.Dst)

	case code.FCMP:
		if sz == 4 {
			a.sseXM(0xF3, 0x10, xmm0, r15, fpDisp(in.Src1))
			a.sseXM(0, 0x2E, xmm0, r15, fpDisp(in.Src2)) // ucomiss
		} else {
			a.sseXM(0xF2, 0x10, xmm0, r15, fpDisp(in.Src1))
			a.sseXM(0x66, 0x2E, xmm0, r15, fpDisp(in.Src2)) // ucomisd
		}
		// Unordered sets ZF=PF=CF=1 in hardware, but the oracle's
		// x==y / x<y are false on NaN: mask ZF/CF with NOT PF.
		a.setccR(hwNP, rax)
		a.setccR(hwE, rcx)
		a.setccR(hwB, rdx)
		a.aluRR(opAND, sz8b, rcx, rax)
		a.aluRR(opAND, sz8b, rdx, rax)
		a.movMR(sz8b, rbp, e.zfD(), rcx)
		a.movMI8(rbp, e.sfD(), 0)
		a.movMI8(rbp, e.ofD(), 0)
		a.movMR(sz8b, rbp, e.cfD(), rdx)

	case code.CVTIF:
		a.movsxdRM(rax, r15, intDisp(in.Src1))
		if sz == 4 {
			a.cvtsi2x(0xF3, xmm0, rax)
			a.movdRX(rax, xmm0)
		} else {
			a.cvtsi2x(0xF2, xmm0, rax)
			a.movqRX(rax, xmm0)
		}
		e.storeFPScalar(in.Dst)

	case code.CVTFI:
		if sz == 4 {
			a.cvttx2si(0xF3, rax, r15, fpDisp(in.Src1))
		} else {
			a.cvttx2si(0xF2, rax, r15, fpDisp(in.Src1))
		}
		// cvtt leaves a 32-bit result; the store zero-extends, matching
		// writeInt(uint64(uint32(int32(f))), 4).
		e.storeInt(in.Dst, rax)

	case code.VLD:
		e.emitEA(in.Mem)
		e.translate(i)
		e.evMem(false, 16)
		a.sseXM(0, 0x10, xmm0, rax, 0) // movups
		a.sseXM(0, 0x11, xmm0, r15, fpDisp(in.Dst))

	case code.VST:
		e.emitEA(in.Mem)
		e.translate(i)
		e.evMem(true, 16)
		a.sseXM(0, 0x10, xmm0, r15, fpDisp(in.Src1))
		a.sseXM(0, 0x11, xmm0, rax, 0)

	case code.VADDF, code.VSUBF, code.VMULF, code.VADDI, code.VSUBI:
		a.sseXM(0, 0x10, xmm0, r15, fpDisp(in.Src1))
		if in.MemSrcALU() {
			e.emitEA(in.Mem)
			e.translate(i)
			e.evMem(false, 16)
			a.sseXM(0, 0x10, xmm1, rax, 0)
		} else {
			a.sseXM(0, 0x10, xmm1, r15, fpDisp(in.Src2))
		}
		switch in.Op {
		case code.VADDF:
			a.sseXX(0, 0x58, xmm0, xmm1) // addps
		case code.VSUBF:
			a.sseXX(0, 0x5C, xmm0, xmm1)
		case code.VMULF:
			a.sseXX(0, 0x59, xmm0, xmm1)
		case code.VADDI:
			a.sseXX(0x66, 0xFE, xmm0, xmm1) // paddd
		default:
			a.sseXX(0x66, 0xFA, xmm0, xmm1) // psubd
		}
		a.sseXM(0, 0x11, xmm0, r15, fpDisp(in.Dst))

	case code.VMULI:
		// PMULLD is SSE4.1; compute the four 32-bit lane products in
		// scalar registers instead, reading lane l of both sources before
		// writing lane l of the destination (safe under aliasing).
		base, disp := r15, fpDisp(in.Src2)
		if in.MemSrcALU() {
			e.emitEA(in.Mem)
			e.translate(i)
			e.evMem(false, 16)
			base, disp = rax, 0
		}
		for l := int32(0); l < 4; l++ {
			a.movRM(sz32, rcx, r15, fpDisp(in.Src1)+4*l)
			a.imulRM(rcx, base, disp+4*l)
			a.movMR(sz32, r15, fpDisp(in.Dst)+4*l, rcx)
		}

	case code.VSPLAT:
		a.movRM(sz32, rax, r15, fpDisp(in.Src1))
		for l := int32(0); l < 4; l++ {
			a.movMR(sz32, r15, fpDisp(in.Dst)+4*l, rax)
		}

	case code.VRSUM:
		a.sseXX(0, 0x57, xmm0, xmm0) // xorps: exact +0 accumulator
		for l := int32(0); l < 4; l++ {
			a.sseXM(0xF3, 0x58, xmm0, r15, fpDisp(in.Src1)+4*l) // addss
		}
		a.movdRX(rax, xmm0)
		e.storeFPScalar(in.Dst)
	}
}
