package cpu

import (
	"fmt"
	"math"

	"compisa/internal/code"
)

// stepFn executes one active instruction and returns the next index. The
// table-driven executor resolves each instruction's stepFn once at predecode
// time.
type stepFn func(st *State, in *code.Instr, ev *Event, addrMask uint64, idx int) (int, error)

// stepTab maps code.Op to its handler. Unhandled opcodes stay nil and fail
// with ErrUnimplementedOp only if actually executed.
var stepTab [256]stepFn

func init() {
	stepTab[code.NOP] = stepNOP
	stepTab[code.MOV] = stepMOV
	stepTab[code.MOVSX] = stepMOVSX
	stepTab[code.LEA] = stepLEA
	stepTab[code.LD] = stepLD
	stepTab[code.ST] = stepST
	stepTab[code.ADD] = stepADD
	stepTab[code.ADC] = stepADC
	stepTab[code.SUB] = stepSUB
	stepTab[code.SBB] = stepSBB
	stepTab[code.IMUL] = stepIMUL
	stepTab[code.AND] = stepAND
	stepTab[code.OR] = stepOR
	stepTab[code.XOR] = stepXOR
	stepTab[code.SHL] = stepSHL
	stepTab[code.SHR] = stepSHR
	stepTab[code.SAR] = stepSAR
	stepTab[code.CMP] = stepCMP
	stepTab[code.TEST] = stepTEST
	stepTab[code.SETCC] = stepSETCC
	stepTab[code.CMOVCC] = stepCMOVCC
	stepTab[code.JCC] = stepJCC
	stepTab[code.JMP] = stepJMP
	stepTab[code.RET] = stepRET
	stepTab[code.FMOV] = stepFMOV
	stepTab[code.FLD] = stepFLD
	stepTab[code.FST] = stepFST
	stepTab[code.FADD] = stepFArith
	stepTab[code.FSUB] = stepFArith
	stepTab[code.FMUL] = stepFArith
	stepTab[code.FDIV] = stepFArith
	stepTab[code.FCMP] = stepFCMP
	stepTab[code.CVTIF] = stepCVTIF
	stepTab[code.CVTFI] = stepCVTFI
	stepTab[code.VLD] = stepVLD
	stepTab[code.VST] = stepVST
	stepTab[code.VADDF] = stepVArithF
	stepTab[code.VSUBF] = stepVArithF
	stepTab[code.VMULF] = stepVArithF
	stepTab[code.VADDI] = stepVArithI
	stepTab[code.VSUBI] = stepVArithI
	stepTab[code.VMULI] = stepVArithI
	stepTab[code.VSPLAT] = stepVSPLAT
	stepTab[code.VRSUM] = stepVRSUM
}

// intOp2 resolves the second integer operand (register, immediate, or
// memory).
func (st *State) intOp2(in *code.Instr, ev *Event, addrMask uint64, sz uint8) uint64 {
	switch {
	case in.HasImm:
		return uint64(in.Imm) & code.SzMask(sz)
	case in.MemSrcALU():
		a := st.ea(in.Mem, addrMask)
		ev.MemAddr, ev.MemSz, ev.IsLoad = a, sz, true
		return st.Mem.Read(a, int(sz))
	default:
		return st.Int[in.Src2] & code.SzMask(sz)
	}
}

func (st *State) fpOp2(in *code.Instr, ev *Event, addrMask uint64, sz uint8) [2]uint64 {
	if in.MemSrcALU() {
		a := st.ea(in.Mem, addrMask)
		ev.MemAddr, ev.MemSz, ev.IsLoad = a, sz, true
		if sz == 16 {
			lo, hi := st.Mem.Read128(a)
			return [2]uint64{lo, hi}
		}
		return [2]uint64{st.Mem.Read(a, int(sz)), 0}
	}
	return st.FP[in.Src2]
}

func stepNOP(st *State, in *code.Instr, ev *Event, addrMask uint64, idx int) (int, error) {
	return idx + 1, nil
}

func stepMOV(st *State, in *code.Instr, ev *Event, addrMask uint64, idx int) (int, error) {
	var v uint64
	if in.HasImm {
		v = uint64(in.Imm)
	} else {
		v = st.Int[in.Src1]
	}
	st.writeInt(in.Dst, v&code.SzMask(in.Sz), in.Sz)
	return idx + 1, nil
}

func stepMOVSX(st *State, in *code.Instr, ev *Event, addrMask uint64, idx int) (int, error) {
	st.Int[in.Dst] = uint64(int64(int32(uint32(st.Int[in.Src1]))))
	return idx + 1, nil
}

func stepLEA(st *State, in *code.Instr, ev *Event, addrMask uint64, idx int) (int, error) {
	st.writeInt(in.Dst, st.ea(in.Mem, addrMask), in.Sz)
	return idx + 1, nil
}

func stepLD(st *State, in *code.Instr, ev *Event, addrMask uint64, idx int) (int, error) {
	sz := in.Sz
	a := st.ea(in.Mem, addrMask)
	ev.MemAddr, ev.MemSz, ev.IsLoad = a, sz, true
	st.writeInt(in.Dst, st.Mem.Read(a, int(sz)), 8 /* loads zero-extend */)
	return idx + 1, nil
}

func stepST(st *State, in *code.Instr, ev *Event, addrMask uint64, idx int) (int, error) {
	sz := in.Sz
	a := st.ea(in.Mem, addrMask)
	ev.MemAddr, ev.MemSz, ev.IsStore = a, sz, true
	st.Mem.Write(a, int(sz), st.Int[in.Src1])
	return idx + 1, nil
}

func stepADD(st *State, in *code.Instr, ev *Event, addrMask uint64, idx int) (int, error) {
	sz := in.Sz
	a := st.Int[in.Src1] & code.SzMask(sz)
	b := st.intOp2(in, ev, addrMask, sz)
	r := a + b
	st.Flags = code.AddFlags(a, b, r, false, sz)
	st.writeInt(in.Dst, r&code.SzMask(sz), sz)
	return idx + 1, nil
}

func stepADC(st *State, in *code.Instr, ev *Event, addrMask uint64, idx int) (int, error) {
	sz := in.Sz
	a := st.Int[in.Src1] & code.SzMask(sz)
	b := st.intOp2(in, ev, addrMask, sz)
	cin := st.Flags.CF
	r := a + b
	if cin {
		r++
	}
	st.Flags = code.AddFlags(a, b, r, cin, sz)
	st.writeInt(in.Dst, r&code.SzMask(sz), sz)
	return idx + 1, nil
}

func stepSUB(st *State, in *code.Instr, ev *Event, addrMask uint64, idx int) (int, error) {
	sz := in.Sz
	a := st.Int[in.Src1] & code.SzMask(sz)
	b := st.intOp2(in, ev, addrMask, sz)
	r := a - b
	st.Flags = code.SubFlags(a, b, r, false, sz)
	st.writeInt(in.Dst, r&code.SzMask(sz), sz)
	return idx + 1, nil
}

func stepSBB(st *State, in *code.Instr, ev *Event, addrMask uint64, idx int) (int, error) {
	sz := in.Sz
	a := st.Int[in.Src1] & code.SzMask(sz)
	b := st.intOp2(in, ev, addrMask, sz)
	bin := st.Flags.CF
	r := a - b
	if bin {
		r--
	}
	st.Flags = code.SubFlags(a, b, r, bin, sz)
	st.writeInt(in.Dst, r&code.SzMask(sz), sz)
	return idx + 1, nil
}

func stepIMUL(st *State, in *code.Instr, ev *Event, addrMask uint64, idx int) (int, error) {
	sz := in.Sz
	a := st.Int[in.Src1] & code.SzMask(sz)
	b := st.intOp2(in, ev, addrMask, sz)
	r := (a * b) & code.SzMask(sz)
	// x86 IMUL leaves ZF/SF undefined and sets CF/OF on overflow;
	// nothing downstream consumes them in generated code.
	st.Flags = code.LogicFlags(r, sz)
	st.writeInt(in.Dst, r, sz)
	return idx + 1, nil
}

func stepAND(st *State, in *code.Instr, ev *Event, addrMask uint64, idx int) (int, error) {
	sz := in.Sz
	a := st.Int[in.Src1] & code.SzMask(sz)
	b := st.intOp2(in, ev, addrMask, sz)
	r := a & b
	st.Flags = code.LogicFlags(r, sz)
	st.writeInt(in.Dst, r, sz)
	return idx + 1, nil
}

func stepOR(st *State, in *code.Instr, ev *Event, addrMask uint64, idx int) (int, error) {
	sz := in.Sz
	a := st.Int[in.Src1] & code.SzMask(sz)
	b := st.intOp2(in, ev, addrMask, sz)
	r := a | b
	st.Flags = code.LogicFlags(r, sz)
	st.writeInt(in.Dst, r, sz)
	return idx + 1, nil
}

func stepXOR(st *State, in *code.Instr, ev *Event, addrMask uint64, idx int) (int, error) {
	sz := in.Sz
	a := st.Int[in.Src1] & code.SzMask(sz)
	b := st.intOp2(in, ev, addrMask, sz)
	r := a ^ b
	st.Flags = code.LogicFlags(r, sz)
	st.writeInt(in.Dst, r, sz)
	return idx + 1, nil
}

func stepSHL(st *State, in *code.Instr, ev *Event, addrMask uint64, idx int) (int, error) {
	sz := in.Sz
	a := st.Int[in.Src1] & code.SzMask(sz)
	r := (a << uint(in.Imm)) & code.SzMask(sz)
	st.Flags = code.LogicFlags(r, sz)
	st.writeInt(in.Dst, r, sz)
	return idx + 1, nil
}

func stepSHR(st *State, in *code.Instr, ev *Event, addrMask uint64, idx int) (int, error) {
	sz := in.Sz
	a := st.Int[in.Src1] & code.SzMask(sz)
	r := (a >> uint(in.Imm)) & code.SzMask(sz)
	st.Flags = code.LogicFlags(r, sz)
	st.writeInt(in.Dst, r, sz)
	return idx + 1, nil
}

func stepSAR(st *State, in *code.Instr, ev *Event, addrMask uint64, idx int) (int, error) {
	sz := in.Sz
	a := st.Int[in.Src1] & code.SzMask(sz)
	k := uint(in.Imm)
	var r uint64
	if sz == 4 {
		r = uint64(uint32(int32(uint32(a)) >> k))
	} else {
		r = uint64(int64(a) >> k)
	}
	r &= code.SzMask(sz)
	st.Flags = code.LogicFlags(r, sz)
	st.writeInt(in.Dst, r, sz)
	return idx + 1, nil
}

func stepCMP(st *State, in *code.Instr, ev *Event, addrMask uint64, idx int) (int, error) {
	sz := in.Sz
	a := st.Int[in.Src1] & code.SzMask(sz)
	b := st.intOp2(in, ev, addrMask, sz)
	st.Flags = code.SubFlags(a, b, a-b, false, sz)
	return idx + 1, nil
}

func stepTEST(st *State, in *code.Instr, ev *Event, addrMask uint64, idx int) (int, error) {
	sz := in.Sz
	a := st.Int[in.Src1] & code.SzMask(sz)
	b := st.intOp2(in, ev, addrMask, sz)
	st.Flags = code.LogicFlags(a&b, sz)
	return idx + 1, nil
}

func stepSETCC(st *State, in *code.Instr, ev *Event, addrMask uint64, idx int) (int, error) {
	var v uint64
	if st.Flags.Cond(in.CC) {
		v = 1
	}
	st.writeInt(in.Dst, v, 4)
	return idx + 1, nil
}

func stepCMOVCC(st *State, in *code.Instr, ev *Event, addrMask uint64, idx int) (int, error) {
	sz := in.Sz
	var v uint64
	if in.HasMem {
		// CMOV with a memory source always performs the load.
		a := st.ea(in.Mem, addrMask)
		ev.MemAddr, ev.MemSz, ev.IsLoad = a, sz, true
		v = st.Mem.Read(a, int(sz))
	} else {
		v = st.Int[in.Src1] & code.SzMask(sz)
	}
	if st.Flags.Cond(in.CC) {
		st.writeInt(in.Dst, v, sz)
	}
	return idx + 1, nil
}

func stepJCC(st *State, in *code.Instr, ev *Event, addrMask uint64, idx int) (int, error) {
	if st.Flags.Cond(in.CC) {
		ev.Taken = true
		return int(in.Target), nil
	}
	return idx + 1, nil
}

func stepJMP(st *State, in *code.Instr, ev *Event, addrMask uint64, idx int) (int, error) {
	ev.Taken = true
	return int(in.Target), nil
}

func stepRET(st *State, in *code.Instr, ev *Event, addrMask uint64, idx int) (int, error) {
	var v uint64
	if in.Src1 != code.NoReg {
		v = st.Int[in.Src1]
	}
	ev.MemAddr = v // stashed; the run loop extracts it
	return idx, nil
}

func stepFMOV(st *State, in *code.Instr, ev *Event, addrMask uint64, idx int) (int, error) {
	st.FP[in.Dst] = st.FP[in.Src1]
	return idx + 1, nil
}

func stepFLD(st *State, in *code.Instr, ev *Event, addrMask uint64, idx int) (int, error) {
	sz := in.Sz
	a := st.ea(in.Mem, addrMask)
	ev.MemAddr, ev.MemSz, ev.IsLoad = a, sz, true
	st.FP[in.Dst] = [2]uint64{st.Mem.Read(a, int(sz)), 0}
	return idx + 1, nil
}

func stepFST(st *State, in *code.Instr, ev *Event, addrMask uint64, idx int) (int, error) {
	sz := in.Sz
	a := st.ea(in.Mem, addrMask)
	ev.MemAddr, ev.MemSz, ev.IsStore = a, sz, true
	st.Mem.Write(a, int(sz), st.FP[in.Src1][0])
	return idx + 1, nil
}

func stepFArith(st *State, in *code.Instr, ev *Event, addrMask uint64, idx int) (int, error) {
	sz := in.Sz
	a := st.FP[in.Src1]
	b := st.fpOp2(in, ev, addrMask, sz)
	var r uint64
	if sz == 4 {
		x, y := f32of(a[0]), f32of(b[0])
		var f float32
		switch in.Op {
		case code.FADD:
			f = x + y
		case code.FSUB:
			f = x - y
		case code.FMUL:
			f = x * y
		default:
			f = x / y
		}
		r = f32to(f)
	} else {
		x, y := f64of(a[0]), f64of(b[0])
		var f float64
		switch in.Op {
		case code.FADD:
			f = x + y
		case code.FSUB:
			f = x - y
		case code.FMUL:
			f = x * y
		default:
			f = x / y
		}
		r = f64to(f)
	}
	st.FP[in.Dst] = [2]uint64{r, 0}
	return idx + 1, nil
}

func stepFCMP(st *State, in *code.Instr, ev *Event, addrMask uint64, idx int) (int, error) {
	var x, y float64
	if in.Sz == 4 {
		x, y = float64(f32of(st.FP[in.Src1][0])), float64(f32of(st.FP[in.Src2][0]))
	} else {
		x, y = f64of(st.FP[in.Src1][0]), f64of(st.FP[in.Src2][0])
	}
	// UCOMISS/SD: ZF = equal, CF = below; SF/OF cleared.
	st.Flags = code.Flags{ZF: x == y, CF: x < y}
	return idx + 1, nil
}

func stepCVTIF(st *State, in *code.Instr, ev *Event, addrMask uint64, idx int) (int, error) {
	s := int64(int32(uint32(st.Int[in.Src1])))
	if in.Sz == 4 {
		st.FP[in.Dst] = [2]uint64{f32to(float32(s)), 0}
	} else {
		st.FP[in.Dst] = [2]uint64{f64to(float64(s)), 0}
	}
	return idx + 1, nil
}

func stepCVTFI(st *State, in *code.Instr, ev *Event, addrMask uint64, idx int) (int, error) {
	var f float64
	if in.Sz == 4 {
		f = float64(f32of(st.FP[in.Src1][0]))
	} else {
		f = f64of(st.FP[in.Src1][0])
	}
	st.writeInt(in.Dst, uint64(uint32(int32(f))), 4)
	return idx + 1, nil
}

func stepVLD(st *State, in *code.Instr, ev *Event, addrMask uint64, idx int) (int, error) {
	a := st.ea(in.Mem, addrMask)
	ev.MemAddr, ev.MemSz, ev.IsLoad = a, 16, true
	lo, hi := st.Mem.Read128(a)
	st.FP[in.Dst] = [2]uint64{lo, hi}
	return idx + 1, nil
}

func stepVST(st *State, in *code.Instr, ev *Event, addrMask uint64, idx int) (int, error) {
	a := st.ea(in.Mem, addrMask)
	ev.MemAddr, ev.MemSz, ev.IsStore = a, 16, true
	st.Mem.Write128(a, st.FP[in.Src1][0], st.FP[in.Src1][1])
	return idx + 1, nil
}

func stepVArithF(st *State, in *code.Instr, ev *Event, addrMask uint64, idx int) (int, error) {
	a := st.FP[in.Src1]
	b := st.fpOp2(in, ev, addrMask, in.Sz)
	var out [4]uint32
	for l := 0; l < 4; l++ {
		x, y := math.Float32frombits(lane(a, l)), math.Float32frombits(lane(b, l))
		var f float32
		switch in.Op {
		case code.VADDF:
			f = x + y
		case code.VSUBF:
			f = x - y
		default:
			f = x * y
		}
		out[l] = math.Float32bits(f)
	}
	st.FP[in.Dst] = packLanes(out)
	return idx + 1, nil
}

func stepVArithI(st *State, in *code.Instr, ev *Event, addrMask uint64, idx int) (int, error) {
	a := st.FP[in.Src1]
	b := st.fpOp2(in, ev, addrMask, in.Sz)
	var out [4]uint32
	for l := 0; l < 4; l++ {
		x, y := lane(a, l), lane(b, l)
		switch in.Op {
		case code.VADDI:
			out[l] = x + y
		case code.VSUBI:
			out[l] = x - y
		default:
			out[l] = x * y
		}
	}
	st.FP[in.Dst] = packLanes(out)
	return idx + 1, nil
}

func stepVSPLAT(st *State, in *code.Instr, ev *Event, addrMask uint64, idx int) (int, error) {
	v := lane(st.FP[in.Src1], 0)
	st.FP[in.Dst] = packLanes([4]uint32{v, v, v, v})
	return idx + 1, nil
}

func stepVRSUM(st *State, in *code.Instr, ev *Event, addrMask uint64, idx int) (int, error) {
	a := st.FP[in.Src1]
	var s float32
	for l := 0; l < 4; l++ {
		s += math.Float32frombits(lane(a, l))
	}
	st.FP[in.Dst] = [2]uint64{f32to(s), 0}
	return idx + 1, nil
}

// eventBatch is how many events the run loop buffers before it hands them
// to its sink: large enough that a call per batch is noise next to the
// events' own cost, small enough (8 KB of Events) to stay in L1 between the
// executor writing a batch and the consumer reading it.
const eventBatch = 256

// RunPredecoded is the table-driven run loop over a predecoded program. It
// reads instruction length, micro-op count, and handler from the predecode
// arrays instead of recomputing them per dynamic instruction; the digests
// under testdata/ pin its event stream and results cell by cell. consume
// (which may be nil) sees every event in program order, one call each, and
// all of them before RunPredecoded returns. The events reach it in batches,
// so it must not read st, which runs ahead of the event it is handed, nor
// expect opts.Interrupt to run after the events executed before the poll.
func RunPredecoded(pd *Predecoded, st *State, opts RunOptions, consume func(*Event)) (ExecResult, error) {
	if jit := opts.JIT; jit != nil {
		// The engine gets the caller's consumer as it is: with none, it
		// runs its module that records no events. The inner options drop
		// the runner, so neither its deoptimized steps nor the interpreter
		// below after a bailout offer the execution again.
		opts.JIT = nil
		if res, ok, err := jit.RunJIT(pd, st, opts, consume); ok {
			return res, err
		}
	}
	sink := func([]Event) {}
	if consume != nil {
		sink = func(evs []Event) {
			for i := range evs {
				consume(&evs[i])
			}
		}
	}
	return runBatched(pd, st, opts, make([]Event, eventBatch), sink)
}

// offerJIT offers the execution to the native-code engine opts.JIT on the
// profiler's path (RunPredecoded offers it the caller's consumer itself).
// If the engine takes it, the events it streams reach sink through buf,
// flushed before offerJIT returns, as runBatched delivers them. The inner options
// drop the runner so deoptimized interpreter steps (and the
// full-interpreter fallback on bailout) cannot recurse. It is a function
// of its own because a closure in runBatched capturing the loop's pending
// count would move that count to the heap for the whole loop.
func offerJIT(pd *Predecoded, st *State, opts RunOptions, buf []Event, sink func([]Event)) (ExecResult, bool, error) {
	inner := opts
	inner.JIT = nil
	pending := 0
	consume := func(ev *Event) {
		buf[pending] = *ev
		if pending++; pending == len(buf) {
			sink(buf)
			pending = 0
		}
	}
	res, ok, err := opts.JIT.RunJIT(pd, st, inner, consume)
	if pending > 0 {
		sink(buf[:pending])
	}
	return res, ok, err
}

// runBatched is the interpreter loop. It writes each executed event into
// buf and hands buf to sink whenever it fills; on every way out (RET, the
// budget, an out-of-range PC, a failed step or decode, a failed Interrupt)
// it first hands sink the pending events, so when it returns the consumer
// has seen exactly the events executed. An execution opts.JIT takes
// reaches sink through the same buffer.
func runBatched(pd *Predecoded, st *State, opts RunOptions, buf []Event, sink func([]Event)) (ExecResult, error) {
	if opts.JIT != nil {
		if res, ok, err := offerJIT(pd, st, opts, buf, sink); ok {
			return res, err
		}
	}
	pending := 0  // events in buf not yet handed to sink
	ev := &buf[0] // the slot of the next event, buf[pending]
	var res ExecResult
	p := pd.P
	InstallPool(p, st.Mem)
	var addrMask uint64 = math.MaxUint64
	if p.FS.Width == 32 {
		addrMask = math.MaxUint32
	}
	stride := opts.InterruptEvery
	if stride <= 0 {
		stride = 65536
	}
	nextPoll := stride
	idx := 0
	n := len(p.Instrs)
	var err error
	for {
		if idx < 0 || idx >= n {
			err = fmt.Errorf("cpu: %s: pc %d: %w", p.Name, idx, ErrPCOutOfRange)
			break
		}
		if res.Instrs >= opts.MaxInstrs {
			err = fmt.Errorf("cpu: %s after %d instructions: %w", p.Name, opts.MaxInstrs, ErrInstrBudget)
			break
		}
		if opts.Interrupt != nil && res.Instrs >= nextPoll {
			nextPoll = res.Instrs + stride
			if ierr := opts.Interrupt(); ierr != nil {
				err = fmt.Errorf("cpu: %s: %w: %w", p.Name, ErrInterrupted, ierr)
				break
			}
		}
		in := &p.Instrs[idx]
		res.Instrs++
		nuops := pd.nuops[idx]
		res.Uops += int64(nuops)

		*ev = Event{Idx: int32(idx), PC: p.PC[idx], Len: pd.len[idx], Uops: nuops}

		// Predication gate.
		active := true
		if in.Pred != code.NoReg {
			pv := uint32(st.Int[in.Pred]) != 0
			active = pv == in.PredSense
			if !active {
				ev.PredOff = true
				res.PredOff++
			}
		}

		next := idx + 1
		if active {
			fn := pd.step[idx]
			if fn == nil {
				err = fmt.Errorf("cpu: op %d: %w", uint8(in.Op), ErrUnimplementedOp)
				break
			}
			if next, err = fn(st, in, ev, addrMask, idx); err != nil {
				break
			}
			if in.Op == code.RET {
				res.Ret = ev.MemAddr // stashed return value
				ev.MemAddr, ev.MemSz = 0, 0
				ev.Taken = true
				pending++
				break
			}
		}
		if in.Op == code.JCC {
			res.Branches++
			if ev.Taken {
				res.Taken++
			}
		}
		if ev.IsLoad {
			res.Loads++
		}
		if ev.IsStore {
			res.Stores++
		}
		if pending++; pending == len(buf) {
			sink(buf)
			pending = 0
		}
		ev = &buf[pending]
		idx = next
	}
	if pending > 0 {
		sink(buf[:pending])
	}
	return res, err
}
