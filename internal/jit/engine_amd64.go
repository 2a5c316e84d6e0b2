//go:build amd64 && linux

package jit

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"unsafe"

	"compisa/internal/code"
	"compisa/internal/cpu"
	"compisa/internal/mem"
)

var eventPool = sync.Pool{New: func() any {
	b := make([]cpu.Event, chunkCap)
	return &b
}}

// cachedMod is a module plus its cache bookkeeping. refs counts running
// users; dead marks eviction from the cache; freed is CAS-guarded so the
// evictor and the last releaser cannot both unmap the pages.
type cachedMod struct {
	mod   *module
	refs  atomic.Int64
	dead  atomic.Bool
	freed atomic.Bool
	stamp int64 // LRU clock, guarded by archEngine.mu
}

func (cm *cachedMod) release() {
	if cm.refs.Add(-1) == 0 && cm.dead.Load() {
		cm.tryFree()
	}
}

func (cm *cachedMod) tryFree() {
	if cm.refs.Load() == 0 && cm.dead.Load() && cm.freed.CompareAndSwap(false, true) {
		cm.mod.pages.free()
	}
}

// modKey is a code-cache key: the program's content fingerprint plus the
// template variant (event-recording or tally-only). A program evaluated
// both with and without a consumer occupies two cache slots.
type modKey struct {
	key    progKey
	events bool
}

// archEngine is the native backend: an LRU code cache of compiled modules.
type archEngine struct {
	mu    sync.Mutex
	cache map[modKey]*cachedMod
	clock int64
}

func (ae *archEngine) init() { ae.cache = make(map[modKey]*cachedMod) }

// acquire returns a referenced module for key, compiling pd if it is not
// resident. Compilation happens outside the lock; a racing insert keeps the
// resident module and frees ours.
func (ae *archEngine) acquire(e *Engine, key modKey, pd *cpu.Predecoded) (*cachedMod, error) {
	ae.mu.Lock()
	if cm := ae.cache[key]; cm != nil {
		cm.refs.Add(1)
		ae.clock++
		cm.stamp = ae.clock
		ae.mu.Unlock()
		e.stats.hits.Add(1)
		return cm, nil
	}
	ae.mu.Unlock()

	mod, err := compileProgram(key.key, pd, key.events)
	if err != nil {
		return nil, err
	}
	cm := &cachedMod{mod: mod}
	cm.refs.Add(1)

	ae.mu.Lock()
	if old := ae.cache[key]; old != nil {
		old.refs.Add(1)
		ae.clock++
		old.stamp = ae.clock
		ae.mu.Unlock()
		mod.pages.free()
		e.stats.hits.Add(1)
		return old, nil
	}
	ae.clock++
	cm.stamp = ae.clock
	ae.cache[key] = cm
	var evicted []*cachedMod
	for len(ae.cache) > e.cfg.CacheEntries {
		var vk modKey
		var vm *cachedMod
		for k, c := range ae.cache {
			if c == cm {
				continue
			}
			if vm == nil || c.stamp < vm.stamp {
				vk, vm = k, c
			}
		}
		if vm == nil {
			break
		}
		delete(ae.cache, vk)
		vm.dead.Store(true)
		evicted = append(evicted, vm)
	}
	ae.mu.Unlock()
	e.stats.regions.Add(1)
	for _, v := range evicted {
		e.stats.evictions.Add(1)
		v.tryFree()
	}
	return cm, nil
}

// Guest memory windows aliased for native access. Sizes are in mem.PageSize
// units; every window is at least one page, so max = len-16 is always a
// valid non-negative bound.
const (
	winSlack    = 16 * mem.PageSize // headroom past the resident extent
	dataWinMin  = 4 * mem.PageSize
	dataWinMax  = 64 << 20
	spillWinLen = 17 * mem.PageSize
	ctxbWinLen  = 2 * mem.PageSize
	poolWinMin  = 2 * mem.PageSize
)

func clampWin(v, lo, hi uint64) uint64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func b2u(b bool) byte {
	if b {
		return 1
	}
	return 0
}

func flagsToCtx(st *cpu.State, ctx *jitCtx) {
	zf, sf, of, cf := st.CondFlags()
	ctx.flags = [4]byte{b2u(zf), b2u(sf), b2u(of), b2u(cf)}
}

func flagsToState(ctx *jitCtx, st *cpu.State) {
	st.SetCondFlags(ctx.flags[0] != 0, ctx.flags[1] != 0, ctx.flags[2] != 0, ctx.flags[3] != 0)
}

// compile ensures pd's module is resident, without executing anything. It
// warms the event-recording variant — the one the evaluation pipeline runs,
// since profiling always attaches a consumer.
func (e *Engine) compile(pd *cpu.Predecoded) (bool, error) {
	cm, err := e.arch.acquire(e, modKey{key: fingerprint(pd), events: true}, pd)
	if err != nil {
		return true, err
	}
	cm.release()
	return true, nil
}

// runNative executes pd natively, reproducing the interpreter's results
// exactly. It returns handled=false only on a bailout that left no trace
// (compile failure), in which case the interpreter runs instead.
func (e *Engine) runNative(key progKey, pd *cpu.Predecoded, st *cpu.State, opts cpu.RunOptions, consume func(*cpu.Event)) (cpu.ExecResult, bool, error) {
	cm, cerr := e.arch.acquire(e, modKey{key: key, events: consume != nil}, pd)
	if cerr != nil {
		e.stats.bailouts.Add(1)
		return cpu.ExecResult{}, false, nil
	}
	defer cm.release()
	mod := cm.mod
	e.stats.runs.Add(1)

	p := pd.P
	n := len(p.Instrs)
	m := st.Mem
	cpu.InstallPool(p, m)

	// Alias the guest memory windows onto flat buffers the generated code
	// addresses directly. Accesses outside the windows deopt to the
	// interpreter, which reads the same sparse image — so sizing is purely
	// a performance decision, never a correctness one.
	dataLen := clampWin(m.Extent(code.DataBase, code.DataLimit)-code.DataBase+winSlack,
		dataWinMin, dataWinMax)
	poolLen := clampWin(m.Extent(code.PoolBase, code.SpillBase)-code.PoolBase+winSlack,
		poolWinMin, code.SpillBase-code.PoolBase)
	dataBuf := make([]byte, dataLen)
	spillBuf := make([]byte, spillWinLen)
	ctxbBuf := make([]byte, ctxbWinLen)
	poolBuf := make([]byte, poolLen)
	m.Alias(code.DataBase, dataBuf)
	m.Alias(code.SpillBase, spillBuf)
	m.Alias(code.ContextBase, ctxbBuf)
	m.Alias(code.PoolBase, poolBuf)

	// The event buffer only exists when someone consumes it; the tally-only
	// module variant never stores through the event cursor.
	var evbuf []cpu.Event
	if consume != nil {
		bufp := eventPool.Get().(*[]cpu.Event)
		defer eventPool.Put(bufp)
		evbuf = *bufp
	}

	// The ctx carries host addresses as uintptr (native stores into it must
	// not need write barriers); the real references stay live in this frame.
	ctx := &jitCtx{
		state:     uintptr(unsafe.Pointer(&st.Int[0])),
		dataHost:  uintptr(unsafe.Pointer(&dataBuf[0])),
		spillHost: uintptr(unsafe.Pointer(&spillBuf[0])),
		ctxbHost:  uintptr(unsafe.Pointer(&ctxbBuf[0])),
		poolHost:  uintptr(unsafe.Pointer(&poolBuf[0])),
		dataMax:   dataLen - 16,
		spillMax:  spillWinLen - 16,
		ctxbMax:   ctxbWinLen - 16,
		poolMax:   poolLen - 16,
	}
	flagsToCtx(st, ctx)
	defer func() {
		flagsToState(ctx, st)
		runtime.KeepAlive(st)
		runtime.KeepAlive(dataBuf)
		runtime.KeepAlive(spillBuf)
		runtime.KeepAlive(ctxbBuf)
		runtime.KeepAlive(poolBuf)
		runtime.KeepAlive(mod)
	}()

	var res cpu.ExecResult
	stride := opts.InterruptEvery
	if stride <= 0 {
		stride = 65536
	}
	nextPoll := stride
	idx := 0
	for {
		// Loop-top checks mirror the interpreter's order exactly: pc range,
		// then budget, then interrupt poll.
		if idx < 0 || idx >= n {
			return res, true, fmt.Errorf("cpu: %s: pc %d: %w", p.Name, idx, cpu.ErrPCOutOfRange)
		}
		if res.Instrs >= opts.MaxInstrs {
			return res, true, fmt.Errorf("cpu: %s after %d instructions: %w", p.Name, opts.MaxInstrs, cpu.ErrInstrBudget)
		}
		if opts.Interrupt != nil && res.Instrs >= nextPoll {
			nextPoll = res.Instrs + stride
			if err := opts.Interrupt(); err != nil {
				return res, true, fmt.Errorf("cpu: %s: %w: %w", p.Name, cpu.ErrInterrupted, err)
			}
		}

		// Size the chunk so native code can never overrun the budget or a
		// poll boundary: both checks re-run at this loop top with the same
		// instruction counts the interpreter would see.
		allowance := opts.MaxInstrs - res.Instrs
		if allowance > chunkCap {
			allowance = chunkCap
		}
		if opts.Interrupt != nil && nextPoll-res.Instrs < allowance {
			allowance = nextPoll - res.Instrs
		}

		if consume != nil {
			ctx.events = uintptr(unsafe.Pointer(&evbuf[0]))
		}
		ctx.remaining = allowance
		ctx.uops, ctx.predoff, ctx.branches = 0, 0, 0
		ctx.taken, ctx.loads, ctx.stores = 0, 0, 0
		ctx.resume = mod.entry + uintptr(mod.off[idx])
		jitcall(mod.entry, ctx)

		// Every committed event slot is one retired instruction. The
		// generated code tallied the chunk as it committed (the counts the
		// interpreter's loop bottom derives per event), so the driver only
		// walks the event buffer when someone is consuming it.
		executed := allowance - ctx.remaining
		res.Instrs += executed
		res.Uops += ctx.uops
		res.PredOff += ctx.predoff
		res.Branches += ctx.branches
		res.Taken += ctx.taken
		res.Loads += ctx.loads
		res.Stores += ctx.stores
		if consume != nil {
			for k := int64(0); k < executed; k++ {
				consume(&evbuf[k])
			}
		}

		switch ctx.exitKind {
		case exitDone:
			res.Ret = ctx.ret
			return res, true, nil

		case exitDeopt:
			// One instruction bounced to the interpreter. The loop-top
			// checks for it already passed: the refill guard guarantees
			// remaining >= 1 here, so executed < allowance and the budget
			// and poll boundaries are not yet reached.
			i := int(ctx.exitIdx)
			e.stats.deopts.Add(1)
			if mod.static[i] {
				e.stats.deoptUnsup.Add(1)
			} else {
				e.stats.deoptMem.Add(1)
			}
			flagsToState(ctx, st)
			var ev cpu.Event
			next, done, ret, serr := cpu.StepOne(pd, st, i, &ev)
			// The interpreter counts the instruction before dispatching it,
			// so a failing instruction is still counted.
			res.Instrs++
			res.Uops += int64(ev.Uops)
			flagsToCtx(st, ctx)
			if serr != nil {
				return res, true, serr
			}
			if done {
				res.Ret = ret
				if consume != nil {
					consume(&ev)
				}
				return res, true, nil
			}
			if ev.PredOff {
				res.PredOff++
			}
			if p.Instrs[ev.Idx].Op == code.JCC {
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
			if consume != nil {
				consume(&ev)
			}
			idx = next

		default: // exitResume: refill or branch out of range
			idx = int(ctx.exitIdx)
		}
	}
}
