package fault

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"time"
)

// Kind enumerates the injectable fault classes. Each exercises a distinct
// recovery path in the evaluate pipeline.
type Kind uint8

const (
	// KindNone means no fault.
	KindNone Kind = iota
	// KindCompile forces the compiler to fail for the pair.
	KindCompile
	// KindRunaway forces runaway execution so the instruction-budget
	// watchdog fires.
	KindRunaway
	// KindCorrupt corrupts the compiled encoding so functional execution
	// hits an unimplemented opcode or an out-of-range PC.
	KindCorrupt
	// KindSlow delays the evaluation (without failing it) to exercise
	// deadline/cancellation handling.
	KindSlow
	// KindBadCode mutates the compiled program into one that is illegal for
	// its feature set, so the static verification stage (not the executor)
	// must catch it. Opt-in only: it is excluded from the default kind list
	// because enabling it would reshuffle the deterministic kind assignment
	// (hash % len(kinds)) existing seeds rely on, and because it only
	// produces a failure when verification is enabled.
	KindBadCode
	// The Kind*Write/Sync/Crash kinds are store-operation faults consumed
	// by a StoreInjector (see store.go), not by the evaluation pipeline's
	// Injector: they fire per filesystem operation of the durable
	// profile store rather than per (region, ISA) evaluation.
	//
	// KindShortWrite makes a write persist only a prefix of its buffer and
	// report an error — the torn-write shape a crash leaves on disk.
	KindShortWrite
	// KindWriteErr fails a write outright with no bytes persisted.
	KindWriteErr
	// KindSyncErr fails an fsync (the data may or may not reach disk; the
	// store must treat it as not durable).
	KindSyncErr
	// KindCrash kills the process mid-operation (after persisting a torn
	// prefix for writes), driving the subprocess chaos harness.
	KindCrash
)

func (k Kind) String() string {
	switch k {
	case KindNone:
		return "none"
	case KindCompile:
		return "compile"
	case KindRunaway:
		return "runaway"
	case KindCorrupt:
		return "corrupt"
	case KindSlow:
		return "slow"
	case KindBadCode:
		return "badcode"
	case KindShortWrite:
		return "shortwrite"
	case KindWriteErr:
		return "writeerr"
	case KindSyncErr:
		return "syncerr"
	case KindCrash:
		return "crash"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// ParseKinds parses a comma-separated kind list ("compile,runaway,corrupt,
// slow,badcode"). An empty string selects every default error-producing
// kind; "badcode" is opt-in (see KindBadCode) and must be named explicitly.
func ParseKinds(s string) ([]Kind, error) {
	if strings.TrimSpace(s) == "" {
		return []Kind{KindCompile, KindRunaway, KindCorrupt, KindSlow}, nil
	}
	var out []Kind
	for _, part := range strings.Split(s, ",") {
		switch strings.TrimSpace(part) {
		case "compile":
			out = append(out, KindCompile)
		case "runaway":
			out = append(out, KindRunaway)
		case "corrupt":
			out = append(out, KindCorrupt)
		case "slow":
			out = append(out, KindSlow)
		case "badcode":
			out = append(out, KindBadCode)
		case "":
		default:
			return nil, fmt.Errorf("fault: unknown kind %q", strings.TrimSpace(part))
		}
	}
	return out, nil
}

// Config configures an Injector.
type Config struct {
	// Seed makes every decision reproducible: the same (seed, key,
	// attempt) always yields the same fault.
	Seed uint64
	// Rate is the probability in [0, 1] that an evaluation keyed by a
	// given string receives a fault.
	Rate float64
	// Kinds are the enabled fault classes; empty enables all of them.
	Kinds []Kind
	// TransientFrac is the fraction of injected error faults that clear
	// on the first retry (default 0: all injected faults are persistent,
	// which keeps quarantine lists maximal and deterministic).
	TransientFrac float64
	// SlowDelay is the delay applied by KindSlow faults (default 2ms).
	SlowDelay time.Duration
}

// Decision is one injector verdict for an evaluation attempt.
type Decision struct {
	Kind      Kind
	Transient bool
	// Delay is non-zero for KindSlow.
	Delay time.Duration
}

// Injector deterministically decides, per evaluation key, whether and how
// to inject a fault. It is stateless after construction and safe for
// concurrent use: decisions depend only on (seed, key, attempt), never on
// evaluation order, so concurrent explorations remain reproducible.
type Injector struct {
	cfg   Config
	kinds []Kind
}

// NewInjector validates the configuration and builds an injector.
// A nil *Injector is valid and injects nothing.
func NewInjector(cfg Config) (*Injector, error) {
	if cfg.Rate < 0 || cfg.Rate > 1 {
		return nil, fmt.Errorf("fault: rate %g outside [0, 1]", cfg.Rate)
	}
	if cfg.TransientFrac < 0 || cfg.TransientFrac > 1 {
		return nil, fmt.Errorf("fault: transient fraction %g outside [0, 1]", cfg.TransientFrac)
	}
	kinds := cfg.Kinds
	if len(kinds) == 0 {
		kinds = []Kind{KindCompile, KindRunaway, KindCorrupt, KindSlow}
	}
	sorted := append([]Kind{}, kinds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	if cfg.SlowDelay == 0 {
		cfg.SlowDelay = 2 * time.Millisecond
	}
	return &Injector{cfg: cfg, kinds: sorted}, nil
}

// Seed returns the configured seed (0 for a nil injector), so downstream
// stages can derive deterministic per-run values from the same source.
func (in *Injector) Seed() uint64 {
	if in == nil {
		return 0
	}
	return in.cfg.Seed
}

// hash mixes the seed and key with FNV-1a.
func (in *Injector) hash(key string) uint64 {
	h := fnv.New64a()
	var seed [8]byte
	for i := 0; i < 8; i++ {
		seed[i] = byte(in.cfg.Seed >> (8 * i))
	}
	h.Write(seed[:])
	h.Write([]byte(key))
	// FNV's low bits are biased for short, similar keys; finalize with a
	// murmur3-style avalanche so every bit is usable for rate gating.
	v := h.Sum64()
	v ^= v >> 33
	v *= 0xff51afd7ed558ccd
	v ^= v >> 33
	v *= 0xc4ceb9fe1a85ec53
	v ^= v >> 33
	return v
}

// Decide returns the fault (if any) for the evaluation identified by key on
// the given retry attempt (0 = first try). Transient faults clear from
// attempt 1 onward; persistent faults fire on every attempt. A nil
// injector never injects.
func (in *Injector) Decide(key string, attempt int) Decision {
	if in == nil || in.cfg.Rate == 0 {
		return Decision{}
	}
	h := in.hash(key)
	// Split the hash: low 32 bits gate the rate, the next bits pick the
	// kind and transience. All derived from the same draw so a pair is
	// either always faulty or never faulty under a given seed.
	u := float64(uint32(h)) / float64(1<<32)
	if u >= in.cfg.Rate {
		return Decision{}
	}
	kind := in.kinds[int((h>>32)&0xffff)%len(in.kinds)]
	transient := float64(uint16(h>>48))/float64(1<<16) < in.cfg.TransientFrac
	if transient && attempt > 0 {
		return Decision{}
	}
	d := Decision{Kind: kind, Transient: transient}
	if kind == KindSlow {
		d.Delay = in.cfg.SlowDelay
	}
	return d
}

// Errorf builds the injected-fault error for a decision, wrapping
// ErrInjected so errors.Is(err, fault.ErrInjected) holds.
func (d Decision) Errorf() error {
	return fmt.Errorf("%w: %s", ErrInjected, d.Kind)
}
