package cpu

import (
	"fmt"
	"math"

	"compisa/internal/code"
)

// JITRunner is the seam through which a native-code executor (internal/jit)
// plugs into the run loop. RunJIT either executes the whole program —
// returning (result, true, err) with semantics bit-identical to the
// interpreter, including the event stream and error wrapping — or declines
// with ok=false having left st and the memory image untouched, in which case
// the interpreter runs as usual (a "bailout": cold program below the hotness
// threshold, unsupported platform, stale code cache entry, ...).
type JITRunner interface {
	RunJIT(pd *Predecoded, st *State, opts RunOptions, consume func(*Event)) (res ExecResult, ok bool, err error)
}

// StepOne executes exactly one instruction at idx against the interpreter,
// filling ev exactly as the run loop would (predication gate included) and
// returning the next instruction index. It is the deoptimization primitive:
// when native code hits a guard (unsupported opcode, memory-window
// violation) the JIT driver retires that one instruction here and resumes
// natively at next.
//
// done reports a RET: ret carries the region checksum, ev.Taken is set and
// ev.MemAddr/MemSz are cleared, mirroring the run loop. StepOne performs no
// budget, interrupt, or PC-range checks — those belong to the caller's loop,
// which must also account res.Instrs/res.Uops for the instruction even when
// err != nil (the run loop counts before dispatching).
func StepOne(pd *Predecoded, st *State, idx int, ev *Event) (next int, done bool, ret uint64, err error) {
	p := pd.P
	var addrMask uint64 = math.MaxUint64
	if p.FS.Width == 32 {
		addrMask = math.MaxUint32
	}
	in := &p.Instrs[idx]
	*ev = Event{Idx: int32(idx), PC: p.PC[idx], Len: pd.len[idx], Uops: pd.nuops[idx]}

	active := true
	if in.Pred != code.NoReg {
		pv := uint32(st.Int[in.Pred]) != 0
		active = pv == in.PredSense
		if !active {
			ev.PredOff = true
		}
	}
	next = idx + 1
	if active {
		fn := pd.step[idx]
		if fn == nil {
			return 0, false, 0, fmt.Errorf("cpu: op %d: %w", uint8(in.Op), ErrUnimplementedOp)
		}
		next, err = fn(st, in, ev, addrMask, idx)
		if err != nil {
			return 0, false, 0, err
		}
		if in.Op == code.RET {
			ret = ev.MemAddr // stashed return value
			ev.MemAddr, ev.MemSz = 0, 0
			ev.Taken = true
			return idx, true, ret, nil
		}
	}
	return next, false, 0, nil
}

// InstrLen returns the predecoded encoding length of instruction i.
func (pd *Predecoded) InstrLen(i int) uint8 { return pd.len[i] }

// UopCount returns the predecoded micro-op count of instruction i.
func (pd *Predecoded) UopCount(i int) uint8 { return pd.nuops[i] }

// Interpretable reports whether instruction i has an interpreter step
// handler; executing an instruction without one fails with
// ErrUnimplementedOp on both paths.
func (pd *Predecoded) Interpretable(i int) bool { return pd.step[i] != nil }
