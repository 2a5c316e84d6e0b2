// Package jit is a region-granular template JIT for the composite-ISA
// functional executor: it translates Predecoded programs (any guest target —
// x86 or alpha64 — since both lower to the same superset-ISA instruction
// stream) into native amd64 machine code, executed in chunks behind the
// cpu.RunOptions.JIT seam.
//
// The interpreter remains the semantic oracle. Native code reproduces the
// interpreter bit for bit — the event stream, the architectural state, the
// ExecResult counters, and the error values — and anything the templates do
// not cover exits through a guard:
//
//   - unsupported opcode / operand shape: the template is a static deopt
//     that hands the instruction to the interpreter (cpu.StepOne) and
//     resumes natively at the successor;
//   - memory-window violation: guest addresses outside the aliased
//     data/spill/context/pool windows deopt the same way, and the sparse
//     memory image stays coherent because the windows are views into it
//     (mem.Memory.Alias);
//   - instruction-budget expiry and fault-injection/interrupt polling:
//     native chunks are sized so they can never cross a budget or poll
//     boundary, making watchdog and cancellation errors byte-identical;
//   - stale code (self-modified or re-predecoded programs): the code cache
//     is keyed by a content fingerprint over every execution-relevant
//     field, so mutated programs can never reuse stale native code.
//
// On platforms other than linux/amd64 the package compiles to a pure-Go
// stub (jit_unsupported.go) whose engine declines every execution, so the
// interpreter runs everywhere and behavior is identical by construction.
package jit

import (
	"sync"
	"sync/atomic"

	"compisa/internal/cpu"
)

// chunkCap bounds how many instructions one native entry may retire; it is
// also the capacity of the native engine's pooled event buffer (32 bytes
// per slot). It is declared on every platform because the tests size their
// budgets by it.
const chunkCap = 8192

// Config tunes an Engine. The zero value is ready to use.
type Config struct {
	// Threshold is the number of RunJIT offers for a given program before
	// it is compiled (default 1: compile on first sight — region programs
	// are built once and evaluated once per process, so there is no warm
	// second chance to wait for).
	Threshold int
	// CacheEntries caps the number of resident native modules; beyond it
	// the least-recently-used module is evicted and its pages unmapped
	// once the last running user releases it. Default 128.
	CacheEntries int
}

// Snapshot is a point-in-time copy of an Engine's counters.
type Snapshot struct {
	// Regions is the number of programs compiled to native code.
	Regions int64
	// Runs counts executions served natively (possibly with deopts).
	Runs int64
	// Deopts counts single instructions bounced to the interpreter.
	Deopts int64
	// DeoptUnsupported/DeoptMemWindow split Deopts by guard kind.
	DeoptUnsupported int64
	DeoptMemWindow   int64
	// Bailouts counts executions declined entirely (unsupported platform,
	// below the hotness threshold, or compile failure): the interpreter
	// ran instead.
	Bailouts int64
	// CacheHits counts native runs served from an already-compiled module.
	CacheHits int64
	// Evictions counts modules dropped from the code cache.
	Evictions int64
}

type stats struct {
	regions, runs, deopts     atomic.Int64
	deoptUnsup, deoptMem      atomic.Int64
	bailouts, hits, evictions atomic.Int64
}

// Engine compiles and caches native modules and implements cpu.JITRunner.
// It is safe for concurrent use by multiple goroutines (the evaluation
// pipeline shares one engine across par.Map workers).
type Engine struct {
	cfg   Config
	stats stats

	mu  sync.Mutex
	hot map[progKey]int64

	arch archEngine
}

var _ cpu.JITRunner = (*Engine)(nil)

// New returns an engine with the given configuration.
func New(cfg Config) *Engine {
	if cfg.Threshold <= 0 {
		cfg.Threshold = 1
	}
	if cfg.CacheEntries <= 0 {
		cfg.CacheEntries = 128
	}
	e := &Engine{cfg: cfg, hot: make(map[progKey]int64)}
	e.arch.init()
	return e
}

// Available reports whether native execution is possible on this platform.
// When false, RunJIT declines every offer and the interpreter runs.
func Available() bool { return archAvailable() }

// Stats returns a snapshot of the engine's counters.
func (e *Engine) Stats() Snapshot {
	return Snapshot{
		Regions:          e.stats.regions.Load(),
		Runs:             e.stats.runs.Load(),
		Deopts:           e.stats.deopts.Load(),
		DeoptUnsupported: e.stats.deoptUnsup.Load(),
		DeoptMemWindow:   e.stats.deoptMem.Load(),
		Bailouts:         e.stats.bailouts.Load(),
		CacheHits:        e.stats.hits.Load(),
		Evictions:        e.stats.evictions.Load(),
	}
}

// Compile ensures pd's native module is resident in the code cache,
// compiling it if necessary; ok reports whether native execution is
// possible on this platform. RunJIT compiles on demand, so this entry is
// only needed to warm the cache up front or to measure compilation apart
// from execution.
func (e *Engine) Compile(pd *cpu.Predecoded) (ok bool, err error) { return e.compile(pd) }

// RunJIT implements cpu.JITRunner: it either executes the whole program
// natively (ok=true) with interpreter-identical results, or declines
// (ok=false) without touching st or memory.
func (e *Engine) RunJIT(pd *cpu.Predecoded, st *cpu.State, opts cpu.RunOptions, consume func(*cpu.Event)) (cpu.ExecResult, bool, error) {
	if !archAvailable() {
		e.stats.bailouts.Add(1)
		return cpu.ExecResult{}, false, nil
	}
	key := fingerprint(pd)
	e.mu.Lock()
	if len(e.hot) > 1<<14 {
		// The hotness table only gates compilation; shedding it under
		// adversarial program churn merely delays compiling by Threshold
		// runs again.
		e.hot = make(map[progKey]int64)
	}
	e.hot[key]++
	seen := e.hot[key]
	e.mu.Unlock()
	if seen < int64(e.cfg.Threshold) {
		e.stats.bailouts.Add(1)
		return cpu.ExecResult{}, false, nil
	}
	return e.runNative(key, pd, st, opts, consume)
}

// progKey is the stable identity of a program's executable content.
type progKey struct {
	hash  uint64
	n     int32
	width uint8
}

// fingerprint hashes every field that influences execution or the event
// stream: the instructions, the laid-out PCs and encoded lengths (which
// differ per guest target), micro-op counts, and the feature-set width.
// The constant pool is deliberately excluded — it lives in memory, not in
// the generated code. Content hashing is what makes the cache safe against
// self-modified or re-predecoded programs: any mutation changes the key.
func fingerprint(pd *cpu.Predecoded) progKey {
	p := pd.P
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	w := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	w(uint64(p.FS.Width))
	w(uint64(len(p.Instrs)))
	for i := range p.Instrs {
		in := &p.Instrs[i]
		w(uint64(in.Op) | uint64(in.Sz)<<8 | uint64(in.Dst)<<16 | uint64(in.Src1)<<24 |
			uint64(in.Src2)<<32 | uint64(in.CC)<<40 | uint64(in.Pred)<<48)
		w(uint64(in.Imm))
		var bits uint64
		if in.HasImm {
			bits |= 1
		}
		if in.HasMem {
			bits |= 2
		}
		if in.PredSense {
			bits |= 4
		}
		w(bits | uint64(in.Mem.Base)<<8 | uint64(in.Mem.Index)<<16 | uint64(in.Mem.Scale)<<24 |
			uint64(uint32(in.Mem.Disp))<<32)
		w(uint64(uint32(in.Target)) | uint64(p.PC[i])<<32)
		w(uint64(pd.InstrLen(i)) | uint64(pd.UopCount(i))<<8)
	}
	return progKey{hash: h, n: int32(len(p.Instrs)), width: uint8(p.FS.Width)}
}
