// Package cpu implements the execution substrate: a functional executor for
// superset-ISA machine code that produces a dynamic micro-op trace, branch
// predictor models (2-level local, gshare, tournament), set-associative
// caches, micro-op cache and decode-pipeline models, and in-order and
// out-of-order timing simulators covering every structure of the paper's
// microarchitectural exploration space (Table I).
package cpu

import (
	"errors"
	"math"

	"compisa/internal/code"
	"compisa/internal/mem"
)

// Typed execution failures. Run wraps them with program context, so callers
// classify with errors.Is (e.g. errors.Is(err, cpu.ErrInstrBudget)).
var (
	// ErrPCOutOfRange reports a control transfer outside the program.
	ErrPCOutOfRange = errors.New("pc out of range")
	// ErrInstrBudget reports that the runaway-execution watchdog fired.
	ErrInstrBudget = errors.New("instruction budget exceeded")
	// ErrUnimplementedOp reports an opcode the executor cannot decode
	// (corrupted or hostile encodings).
	ErrUnimplementedOp = errors.New("unimplemented op")
	// ErrInterrupted reports that RunOptions.Interrupt aborted execution;
	// the interrupt's cause is wrapped alongside it.
	ErrInterrupted = errors.New("execution interrupted")
)

// Event is one dynamically executed macro-instruction, streamed to trace
// consumers (profiler, timing simulators, basic-block-vector collectors).
type Event struct {
	// Idx is the instruction's index in the program.
	Idx int32
	// PC and Len come from the code layout.
	PC  uint32
	Len uint8
	// Uops is the number of micro-ops the macro-op decodes into.
	Uops uint8
	// Taken is the branch outcome for JCC (JMP/RET always "taken").
	Taken bool
	// MemAddr/MemSz describe the data access, if any (loads, stores, and
	// memory-operand ALU instructions).
	MemAddr uint64
	MemSz   uint8
	IsLoad  bool
	IsStore bool
	// PredOff marks a predicated instruction whose predicate did not
	// hold: it flows through the pipeline but commits no result.
	PredOff bool
}

// ExecResult summarizes a functional execution.
type ExecResult struct {
	// Ret is the region checksum from RET.
	Ret uint64
	// Dynamic instruction counts.
	Instrs   int64
	Uops     int64
	Loads    int64
	Stores   int64
	Branches int64 // conditional branches executed
	Taken    int64
	PredOff  int64 // predicated-off instructions
}

// State is the architectural state of a composite-ISA core.
type State struct {
	Int   [64]uint64
	FP    [16][2]uint64
	Flags code.Flags
	Mem   *mem.Memory
}

// NewState returns a zeroed state over the given memory.
func NewState(m *mem.Memory) *State { return &State{Mem: m} }

// InstallPool writes the program's constant pool into memory. Run calls it
// automatically.
func InstallPool(p *code.Program, m *mem.Memory) {
	for _, pc := range p.Pool {
		m.Write(uint64(pc.Addr), int(pc.Size), pc.Bits)
	}
}

// RunOptions bounds and interrupts a functional execution.
type RunOptions struct {
	// MaxInstrs bounds runaway execution; exceeding it fails with
	// ErrInstrBudget.
	MaxInstrs int64
	// Interrupt, if non-nil, is polled every InterruptEvery executed
	// instructions; a non-nil return aborts execution with that error
	// wrapped together with ErrInterrupted. This is how context
	// cancellation reaches the inner execution loop.
	Interrupt func() error
	// InterruptEvery is the polling stride (default 65536 instructions).
	InterruptEvery int64
	// JIT, if non-nil, is offered the execution before the interpreter
	// runs (see JITRunner). A nil or declining runner costs one interface
	// check; the interpreter path is otherwise unchanged.
	JIT JITRunner
}

// Run executes the program functionally from instruction 0 until RET,
// streaming one Event per executed macro-instruction to consume (which may
// be nil). maxInstrs bounds runaway execution.
func Run(p *code.Program, st *State, maxInstrs int64, consume func(*Event)) (ExecResult, error) {
	return RunOpts(p, st, RunOptions{MaxInstrs: maxInstrs}, consume)
}

// RunOpts is Run with watchdog and interrupt control. It predecodes the
// program and runs the table-driven loop; callers executing the same program
// repeatedly should Predecode once and use RunPredecoded directly.
func RunOpts(p *code.Program, st *State, opts RunOptions, consume func(*Event)) (ExecResult, error) {
	return RunPredecoded(Predecode(p), st, opts, consume)
}

// writeInt stores v into an integer register honoring x86 width semantics:
// 32-bit (and narrower) writes zero-extend into the full register.
func (st *State) writeInt(r code.Reg, v uint64, sz uint8) {
	st.Int[r] = v & code.SzMask(sz)
}

// ea computes the effective address of a memory operand.
func (st *State) ea(m code.Mem, addrMask uint64) uint64 {
	var a uint64
	if m.Base != code.NoReg {
		a = st.Int[m.Base]
	}
	if m.Index != code.NoReg {
		a += st.Int[m.Index] * uint64(m.Scale)
	}
	return (a + uint64(int64(m.Disp))) & addrMask
}

func f32of(bits uint64) float32 { return math.Float32frombits(uint32(bits)) }
func f32to(f float32) uint64    { return uint64(math.Float32bits(f)) }
func f64of(bits uint64) float64 { return math.Float64frombits(bits) }
func f64to(f float64) uint64    { return math.Float64bits(f) }
func lane(r [2]uint64, l int) uint32 {
	w := r[l/2]
	if l%2 == 1 {
		w >>= 32
	}
	return uint32(w)
}
func packLanes(l [4]uint32) [2]uint64 {
	return [2]uint64{uint64(l[0]) | uint64(l[1])<<32, uint64(l[2]) | uint64(l[3])<<32}
}
