//go:build amd64 && linux

package jit

import (
	"unsafe"

	"compisa/internal/cpu"
)

// jitCtx is the shared frame between the Go driver and generated code. The
// entry thunk loads the pinned registers from it, the exit stubs store the
// cursor state back, and guest condition flags live in its flags bytes so a
// deopt can rebuild cpu.State.Flags exactly.
//
// Host addresses are held as uintptr on purpose: generated code writes some
// of these fields without write barriers, so nothing in here may be the
// only reference keeping a Go object alive. The driver keeps the real
// references in its frame for the duration of the run.
//
// Register plan while native code runs:
//
//	rbp  = &jitCtx            rbx = remaining chunk allowance
//	r15  = &State.Int[0]      r14 = event cursor
//	r13  = data window host   r12 = spill window host
//	rax, rcx, rdx, rsi, rdi, r8-r11, xmm0-xmm2 = scratch
type jitCtx struct {
	state     uintptr // &State.Int[0]; State.FP at +fpOff
	events    uintptr // event cursor, advanced 32 bytes per commit
	remaining int64   // chunk allowance countdown
	resume    uintptr // native address to enter at
	dataHost  uintptr // host base of the aliased data window
	spillHost uintptr
	ctxbHost  uintptr // binary-translator register-context window
	poolHost  uintptr
	// Window bounds for the translate cascade: (guestAddr - base) must be
	// <= bound, where bound = windowLen-16 so any access size up to 16
	// bytes stays inside the aliased buffer.
	dataMax  uint64
	spillMax uint64
	ctxbMax  uint64
	poolMax  uint64
	// Per-chunk tally counters, bumped by generated code on committed
	// events only (a deopted instruction leaves them untouched, so the
	// interpreter's StepOne accounting never double-counts). They let the
	// driver fill ExecResult without touching the event buffer at all when
	// no consumer is attached.
	uops     int64
	predoff  int64
	branches int64
	taken    int64
	loads    int64
	stores   int64
	ret      uint64 // RET checksum on exitDone
	exitIdx  int32
	exitKind int32
	flags    [4]byte // zf, sf, of, cf as 0/1 bytes
}

// Native exit kinds (ctx.exitKind).
const (
	exitResume = 0 // re-enter the driver loop at exitIdx (refill/branch-out)
	exitDeopt  = 1 // instruction exitIdx needs the interpreter
	exitDone   = 2 // RET committed; ctx.ret holds the checksum
)

// ctxOff holds jitCtx field offsets for the emitter.
var ctxOff = struct {
	state, events, remaining, resume        int32
	dataHost, spillHost, ctxbHost, poolHost int32
	dataMax, spillMax, ctxbMax, poolMax     int32
	uops, predoff, branches, taken          int32
	loads, stores                           int32
	ret, exitIdx, exitKind, flags           int32
}{
	state:     int32(unsafe.Offsetof(jitCtx{}.state)),
	events:    int32(unsafe.Offsetof(jitCtx{}.events)),
	remaining: int32(unsafe.Offsetof(jitCtx{}.remaining)),
	resume:    int32(unsafe.Offsetof(jitCtx{}.resume)),
	dataHost:  int32(unsafe.Offsetof(jitCtx{}.dataHost)),
	spillHost: int32(unsafe.Offsetof(jitCtx{}.spillHost)),
	ctxbHost:  int32(unsafe.Offsetof(jitCtx{}.ctxbHost)),
	poolHost:  int32(unsafe.Offsetof(jitCtx{}.poolHost)),
	dataMax:   int32(unsafe.Offsetof(jitCtx{}.dataMax)),
	spillMax:  int32(unsafe.Offsetof(jitCtx{}.spillMax)),
	ctxbMax:   int32(unsafe.Offsetof(jitCtx{}.ctxbMax)),
	poolMax:   int32(unsafe.Offsetof(jitCtx{}.poolMax)),
	uops:      int32(unsafe.Offsetof(jitCtx{}.uops)),
	predoff:   int32(unsafe.Offsetof(jitCtx{}.predoff)),
	branches:  int32(unsafe.Offsetof(jitCtx{}.branches)),
	taken:     int32(unsafe.Offsetof(jitCtx{}.taken)),
	loads:     int32(unsafe.Offsetof(jitCtx{}.loads)),
	stores:    int32(unsafe.Offsetof(jitCtx{}.stores)),
	ret:       int32(unsafe.Offsetof(jitCtx{}.ret)),
	exitIdx:   int32(unsafe.Offsetof(jitCtx{}.exitIdx)),
	exitKind:  int32(unsafe.Offsetof(jitCtx{}.exitKind)),
	flags:     int32(unsafe.Offsetof(jitCtx{}.flags)),
}

// evOff holds cpu.Event field offsets; templates store event slots with the
// exact memory layout the interpreter's consumers see.
var evOff = struct {
	idx, pc, length, uops, taken          int32
	memAddr, memSz, isLoad, isStore, pred int32
	size                                  int32
}{
	idx:     int32(unsafe.Offsetof(cpu.Event{}.Idx)),
	pc:      int32(unsafe.Offsetof(cpu.Event{}.PC)),
	length:  int32(unsafe.Offsetof(cpu.Event{}.Len)),
	uops:    int32(unsafe.Offsetof(cpu.Event{}.Uops)),
	taken:   int32(unsafe.Offsetof(cpu.Event{}.Taken)),
	memAddr: int32(unsafe.Offsetof(cpu.Event{}.MemAddr)),
	memSz:   int32(unsafe.Offsetof(cpu.Event{}.MemSz)),
	isLoad:  int32(unsafe.Offsetof(cpu.Event{}.IsLoad)),
	isStore: int32(unsafe.Offsetof(cpu.Event{}.IsStore)),
	pred:    int32(unsafe.Offsetof(cpu.Event{}.PredOff)),
	size:    int32(unsafe.Sizeof(cpu.Event{})),
}

// fpOff is the byte offset of State.FP relative to &State.Int[0].
var fpOff = int32(unsafe.Offsetof(cpu.State{}.FP) - unsafe.Offsetof(cpu.State{}.Int))

// layoutOK gates the whole backend on the struct layouts the emitter bakes
// into generated code. If the compiler ever lays cpu.Event out differently,
// the engine declines every run instead of miscompiling.
var layoutOK = evOff.idx == 0 && evOff.pc == 4 && evOff.length == 8 &&
	evOff.uops == 9 && evOff.taken == 10 && evOff.memAddr == 16 &&
	evOff.memSz == 24 && evOff.isLoad == 25 && evOff.isStore == 26 &&
	evOff.pred == 27 && evOff.size == 32 &&
	unsafe.Offsetof(cpu.State{}.Int) == 0

func archAvailable() bool { return layoutOK }

// jitcall transfers control to generated code with ctx in DI, saving the
// callee-saved registers the templates pin. Implemented in
// jitcall_amd64.s.
//
//go:noescape
func jitcall(entry uintptr, ctx *jitCtx)
