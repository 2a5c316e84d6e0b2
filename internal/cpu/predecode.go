package cpu

import (
	"compisa/internal/code"
	"compisa/internal/encoding"
)

// uopTmpl is the static part of one micro-op of a macro-op: everything
// expand() derives from the instruction alone. The per-event fields
// (addresses, dynamic load/store truth) come from the event according to
// memKind: Predecoded.expand instantiates them for the timing walk, and the
// profiler reads them straight from the event while walking the templates
// in place.
type uopTmpl struct {
	class   UopClass
	srcs    [5]int16
	nsrcs   int8
	dst     int16
	dstFlag bool
	memKind uint8
}

const (
	tmplMemNone = iota // no memory operand
	tmplMemFold        // the folded load of a load+op pair: always a load
	tmplMemDyn         // load/store truth comes from the event (LD under
	// predication commits nothing, so IsLoad is dynamic)
)

// Predecoded is a program plus everything the run loop and timing walk would
// otherwise recompute per dynamic instruction: instruction lengths, micro-op
// counts, resolved step handlers, and micro-op decomposition templates.
// Build it once with Predecode and share it between the executor and any
// number of timing/profiling consumers; it is immutable after construction.
type Predecoded struct {
	P *code.Program

	len   []uint8
	nuops []uint8
	step  []stepFn

	tmplOff []int32
	tmplCnt []uint8
	tmpls   []uopTmpl

	// pflags holds the instruction facts the profiler tests per event
	// (pfJCC, pfCmp, pfMemALU), so it never loads the code.Instr.
	pflags []uint8
}

const (
	pfJCC    = 1 << iota // conditional branch: predicted, may end a fused pair
	pfCmp                // CMP or TEST: may macro-fuse with a following JCC
	pfMemALU             // load+op instruction (micro-fused pair)
)

// Predecode derives the dense per-instruction tables for p. Unimplemented
// opcodes get a nil handler and fail only if executed, preserving the lazy
// error semantics of the switch path.
func Predecode(p *code.Program) *Predecoded {
	n := len(p.Instrs)
	pd := &Predecoded{
		P:       p,
		len:     make([]uint8, n),
		nuops:   make([]uint8, n),
		step:    make([]stepFn, n),
		tmplOff: make([]int32, n),
		tmplCnt: make([]uint8, n),
		tmpls:   make([]uopTmpl, 0, n+n/4),
		pflags:  make([]uint8, n),
	}
	var zero Event
	var buf [3]uopSpec
	// Instruction lengths come from the program's target decoder: the
	// variable-length x86 layout or a fixed-length one-step-decode word.
	// The micro-op executor, timing walk, and profiler below are
	// target-independent — only fetch geometry differs between encodings.
	coder := encoding.ForProgram(p)
	for i := range p.Instrs {
		in := &p.Instrs[i]
		pd.len[i] = uint8(coder.InstrLen(p, i))
		pd.nuops[i] = uint8(in.NumUops())
		pd.step[i] = stepTab[in.Op]
		switch in.Op {
		case code.JCC:
			pd.pflags[i] |= pfJCC
		case code.CMP, code.TEST:
			pd.pflags[i] |= pfCmp
		}
		if in.MemSrcALU() {
			pd.pflags[i] |= pfMemALU
		}

		// Derive the micro-op templates by running expand() against a
		// zeroed event: everything it reads from the event is
		// exactly what instantiation must re-supply.
		uops := expand(in, &zero, buf[:0])
		pd.tmplOff[i] = int32(len(pd.tmpls))
		pd.tmplCnt[i] = uint8(len(uops))
		dyn := in.HasMem && !in.MemSrcALU()
		for ui := range uops {
			u := &uops[ui]
			tm := uopTmpl{
				class:   u.class,
				srcs:    u.srcs,
				nsrcs:   int8(u.nsrcs),
				dst:     u.dst,
				dstFlag: u.dstFlag,
			}
			switch {
			case u.isLoad:
				// Only the folded load of a load+op pair is statically a
				// load under a zero event.
				tm.memKind = tmplMemFold
			case dyn && ui == len(uops)-1:
				tm.memKind = tmplMemDyn
			}
			pd.tmpls = append(pd.tmpls, tm)
		}
	}
	return pd
}

// expand instantiates the micro-op decomposition of the instruction at
// ev.Idx into buf: the templates expand() in timing.go derived, with the
// event's memory fields filled in.
func (pd *Predecoded) expand(ev *Event, buf []uopSpec) []uopSpec {
	buf = buf[:0]
	off := int(pd.tmplOff[ev.Idx])
	cnt := int(pd.tmplCnt[ev.Idx])
	for i := 0; i < cnt; i++ {
		tm := &pd.tmpls[off+i]
		u := uopSpec{
			class:   tm.class,
			srcs:    tm.srcs,
			nsrcs:   int(tm.nsrcs),
			dst:     tm.dst,
			dstFlag: tm.dstFlag,
		}
		switch tm.memKind {
		case tmplMemFold:
			u.isLoad = true
			u.addr, u.msz = ev.MemAddr, ev.MemSz
		case tmplMemDyn:
			u.isLoad, u.isStore = ev.IsLoad, ev.IsStore
			u.addr, u.msz = ev.MemAddr, ev.MemSz
		}
		buf = append(buf, u)
	}
	return buf
}
