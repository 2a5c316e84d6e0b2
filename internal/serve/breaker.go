package serve

import (
	"errors"
	"sync"
	"time"

	"compisa/internal/eval"
	"compisa/internal/metrics"
)

// ErrStoreOpen is returned (and counted, never surfaced to clients) for a
// write skipped because the store circuit is open: the evaluation stays
// correct in memory, only its durability is deferred.
var ErrStoreOpen = errors.New("serve: store circuit open; write skipped")

// BreakerState is the store circuit's state.
type BreakerState string

const (
	// BreakerClosed: the store is healthy; writes flow through.
	BreakerClosed BreakerState = "closed"
	// BreakerOpen: the store failed repeatedly; writes are skipped
	// (memory-only serving) until the next probe window.
	BreakerOpen BreakerState = "open"
	// BreakerHalfOpen: one probe write is in flight; its outcome closes
	// or re-opens the circuit.
	BreakerHalfOpen BreakerState = "half-open"
)

// BreakerConfig tunes a StoreBreaker. The zero value selects the
// documented defaults.
type BreakerConfig struct {
	// Threshold is the number of consecutive persist failures that opens
	// the circuit (default 5).
	Threshold int
	// OpenFor is how long an open circuit skips writes before allowing a
	// half-open probe (default 15s).
	OpenFor time.Duration
	// Log, if set, receives state transitions.
	Log func(format string, args ...any)

	// now is the test seam for time (default time.Now).
	now func() time.Time
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.Threshold <= 0 {
		c.Threshold = 5
	}
	if c.OpenFor <= 0 {
		c.OpenFor = 15 * time.Second
	}
	if c.now == nil {
		c.now = time.Now
	}
	return c
}

// BreakerStats counts the circuit's activity (its tags declare /metrics).
type BreakerStats struct {
	Trips    metrics.Counter `metric:"compisa_serve_store_trips_total" help:"Store circuit open transitions."` // closed/half-open → open
	Skipped  metrics.Counter `metric:"compisa_serve_store_skipped_writes_total" help:"Writes dropped while the circuit was open."`
	Probes   metrics.Counter `metric:"compisa_serve_store_probes_total" help:"Half-open probe writes attempted."`
	Failures metrics.Counter `metric:"compisa_serve_store_failures_total" help:"Store writes that failed."`
}

// StoreBreaker wraps an eval.Persister with a circuit breaker, so a dying
// durable tier degrades the service to memory-only instead of taxing every
// profile set with a failing write. It is the production wiring between
// eval.DB.Persist and the store:
//
//	closed → (Threshold consecutive failures) → open
//	open   → (OpenFor elapsed) → half-open: one probe write
//	half-open → probe ok → closed; probe fails → open again
//
// The degraded state is surfaced on /healthz ("degraded") and /metrics
// (compisa_serve_store_degraded) via Server.Config.Store.
type StoreBreaker struct {
	p   eval.Persister
	cfg BreakerConfig

	mu       sync.Mutex
	state    BreakerState
	fails    int
	openedAt time.Time

	stats BreakerStats
}

// NewStoreBreaker wraps a persister.
func NewStoreBreaker(p eval.Persister, cfg BreakerConfig) *StoreBreaker {
	return &StoreBreaker{p: p, cfg: cfg.withDefaults(), state: BreakerClosed}
}

var _ eval.Persister = (*StoreBreaker)(nil)

func (b *StoreBreaker) logf(format string, args ...any) {
	if b.cfg.Log != nil {
		b.cfg.Log(format, args...)
	}
}

// Put forwards the write unless the circuit is open; while open, one write
// per OpenFor window goes through as the half-open probe.
func (b *StoreBreaker) Put(key string, val []byte) error {
	probe, skip := b.admitWrite()
	if skip {
		b.stats.Skipped.Inc()
		return ErrStoreOpen
	}
	err := b.p.Put(key, val)
	b.record(probe, err)
	return err
}

// admitWrite decides this write's fate: pass, probe, or skip.
func (b *StoreBreaker) admitWrite() (probe, skip bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return false, false
	case BreakerHalfOpen:
		// One probe at a time; everything else stays skipped.
		return false, true
	default: // BreakerOpen
		if b.cfg.now().Sub(b.openedAt) < b.cfg.OpenFor {
			return false, true
		}
		b.state = BreakerHalfOpen
		b.stats.Probes.Inc()
		b.logf("serve: store circuit half-open, probing")
		return true, false
	}
}

// record folds a write outcome into the circuit state.
func (b *StoreBreaker) record(probe bool, err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if err == nil {
		if b.state != BreakerClosed {
			b.logf("serve: store circuit closed (store recovered)")
		}
		b.state = BreakerClosed
		b.fails = 0
		return
	}
	b.stats.Failures.Inc()
	if probe {
		// The probe failed: back to fully open for another window.
		b.state = BreakerOpen
		b.openedAt = b.cfg.now()
		b.stats.Trips.Inc()
		b.logf("serve: store probe failed, circuit open again: %v", err)
		return
	}
	b.fails++
	if b.state == BreakerClosed && b.fails >= b.cfg.Threshold {
		b.state = BreakerOpen
		b.openedAt = b.cfg.now()
		b.stats.Trips.Inc()
		b.logf("serve: store circuit open after %d consecutive failures (serving memory-only): %v", b.fails, err)
	}
}

// State reports the circuit's current state.
func (b *StoreBreaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Degraded reports whether the durable tier is currently bypassed.
func (b *StoreBreaker) Degraded() bool { return b.State() != BreakerClosed }

// Stats returns the circuit's counters (for /metrics and tests).
func (b *StoreBreaker) Stats() *BreakerStats { return &b.stats }
