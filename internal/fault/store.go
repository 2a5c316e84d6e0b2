package fault

import (
	"fmt"
	"os"
	"sync/atomic"
)

// StoreOp identifies one mutating filesystem operation of the durable
// profile store. The StoreInjector decides per operation, so a crash
// point is "the Nth mutating operation since open" — a coordinate that is
// stable across runs and lets the chaos harness sweep every phase of an
// append or compaction deterministically.
type StoreOp uint8

const (
	// OpWrite is one append of record bytes to the log.
	OpWrite StoreOp = iota
	// OpSync is one fsync of the log file (the durability boundary).
	OpSync
	// OpRename is the atomic swap installing a compacted log.
	OpRename
	// OpSyncDir is the directory fsync making a rename durable.
	OpSyncDir
)

func (op StoreOp) String() string {
	switch op {
	case OpWrite:
		return "write"
	case OpSync:
		return "sync"
	case OpRename:
		return "rename"
	case OpSyncDir:
		return "syncdir"
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}

// StoreConfig configures a StoreInjector. Two modes compose:
//
//   - CrashAt > 0 plants one deterministic crash: the Nth mutating store
//     operation (1-based, counted across all ops) calls Exit mid-operation.
//     The subprocess chaos harness sweeps N to cover every phase of the
//     append and compaction paths.
//   - Rate > 0 injects recoverable operation errors (short write, write
//     error, fsync error) pseudo-randomly per operation, derived only from
//     (Seed, op sequence number) so runs with equal seeds fail identically.
type StoreConfig struct {
	// Seed drives the per-operation error draw (Rate mode).
	Seed uint64
	// Rate is the probability in [0, 1] that a mutating operation fails.
	Rate float64
	// Kinds are the enabled error kinds for Rate mode (default: short
	// write, write error, fsync error). KindCrash is never drawn randomly;
	// it only fires via CrashAt.
	Kinds []Kind
	// CrashAt, when positive, crashes the process during the Nth mutating
	// operation.
	CrashAt int64
	// Exit is invoked to crash (default os.Exit(170), the chaos harness's
	// sentinel exit code). Tests may substitute panic or a recorder.
	Exit func()
}

// StoreCrashExitCode is the exit status the default Exit uses, so a chaos
// parent can distinguish an injected crash from an organic child failure.
const StoreCrashExitCode = 170

// StoreInjector deterministically decides, per mutating store operation,
// whether and how to inject a fault. Safe for concurrent use; the only
// state is the operation counter.
type StoreInjector struct {
	cfg   StoreConfig
	kinds []Kind
	ops   atomic.Int64
}

// NewStoreInjector validates the configuration and builds an injector.
// A nil *StoreInjector is valid and injects nothing.
func NewStoreInjector(cfg StoreConfig) (*StoreInjector, error) {
	if cfg.Rate < 0 || cfg.Rate > 1 {
		return nil, fmt.Errorf("fault: store rate %g outside [0, 1]", cfg.Rate)
	}
	kinds := cfg.Kinds
	if len(kinds) == 0 {
		kinds = []Kind{KindShortWrite, KindWriteErr, KindSyncErr}
	}
	for _, k := range kinds {
		switch k {
		case KindShortWrite, KindWriteErr, KindSyncErr:
		default:
			return nil, fmt.Errorf("fault: kind %s is not a store error kind", k)
		}
	}
	if cfg.Exit == nil {
		cfg.Exit = func() { os.Exit(StoreCrashExitCode) }
	}
	return &StoreInjector{cfg: cfg, kinds: kinds}, nil
}

// Ops reports how many mutating operations the injector has seen (for
// tests and for sizing chaos sweeps: a crash point beyond this count means
// the workload completed crash-free).
func (si *StoreInjector) Ops() int64 {
	if si == nil {
		return 0
	}
	return si.ops.Load()
}

// Decide returns the verdict for the next mutating store operation. For a
// KindCrash decision the caller is expected to persist the decided torn
// prefix (writes) and then call Crash; error kinds map onto the operation:
// KindShortWrite/KindWriteErr only fire on OpWrite, KindSyncErr on
// OpSync/OpSyncDir. A nil injector never injects.
func (si *StoreInjector) Decide(op StoreOp) Decision {
	if si == nil {
		return Decision{}
	}
	seq := si.ops.Add(1)
	if si.cfg.CrashAt > 0 && seq == si.cfg.CrashAt {
		return Decision{Kind: KindCrash}
	}
	if si.cfg.Rate == 0 {
		return Decision{}
	}
	h := mix64(si.cfg.Seed ^ uint64(seq)*0x9e3779b97f4a7c15)
	if float64(uint32(h))/float64(1<<32) >= si.cfg.Rate {
		return Decision{}
	}
	kind := si.kinds[int((h>>32)&0xffff)%len(si.kinds)]
	switch op {
	case OpWrite:
		if kind == KindSyncErr {
			kind = KindWriteErr
		}
	case OpSync, OpSyncDir:
		kind = KindSyncErr
	default:
		// Rename stays atomic under error injection; only crashes tear it.
		return Decision{}
	}
	// Injected store faults are transient by taxonomy: the operation may
	// succeed when retried (and the serving layer degrades, not fails).
	return Decision{Kind: kind, Transient: true}
}

// Crash invokes the configured exit. Callers persist the decided torn
// state first, so the on-disk image matches a real kill mid-operation.
func (si *StoreInjector) Crash() { si.cfg.Exit() }

// mix64 is the splitmix64 finalizer: a full-avalanche mix so consecutive
// sequence numbers draw independent verdicts.
func mix64(v uint64) uint64 {
	v ^= v >> 30
	v *= 0xbf58476d1ce4e5b9
	v ^= v >> 27
	v *= 0x94d049bb133111eb
	v ^= v >> 31
	return v
}
