// Package eval is the evaluation layer of the design-space-exploration
// pipeline (par → eval → explore; see DESIGN.md, "Pipeline layering"). It
// owns the two expensive stages the domain layer builds on:
//
//   - the profiling stage: one functional execution per (region, ISA
//     choice) pair, with bounded retry, quarantine-on-failure, and a
//     singleflight profile cache;
//   - the scoring stage: perfmodel + power evaluation of (ISA choice,
//     configuration) design points against the reference core, with a
//     memoized candidate cache so each of the 4680 design points is
//     computed once and shared across budgets, organizations, experiment
//     drivers, and (via the checkpoint) processes.
//
// Both stages run on internal/par worker pools and are instrumented
// through internal/metrics (DB.Stats).
package eval

import (
	"context"
	"errors"
	"time"
)

// MaxRegionInstrs bounds each region's functional execution; the domain
// layer reuses the same watchdog budget for its own direct profiling runs.
const MaxRegionInstrs = 40_000_000

// runawayInstrs is the tiny instruction budget applied under an injected
// runaway fault: far below any region's real dynamic count, so the
// instruction-budget watchdog fires through the ordinary execution path.
const runawayInstrs = 10_000

// Policy tunes the evaluation pipeline's fault handling. The zero value
// selects the defaults documented per field.
type Policy struct {
	// MaxAttempts bounds evaluation attempts per (region, ISA) pair
	// (default 3). Only transient faults are retried.
	MaxAttempts int
	// Backoff is the delay before the first retry, doubled on each
	// subsequent attempt (default 1ms).
	Backoff time.Duration
	// SpeedupPenalty is the speedup recorded for a quarantined (region,
	// ISA) pair (default 0.25): the pair scores as running 4x slower than
	// the reference, so searches steer away from — but survive — failures.
	SpeedupPenalty float64
	// EDPPenalty is the normalized EDP recorded for a quarantined pair
	// (default 4.0, the EDP dual of SpeedupPenalty).
	EDPPenalty float64
}

// WithDefaults fills unset fields with the documented defaults.
func (p Policy) WithDefaults() Policy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 3
	}
	if p.Backoff <= 0 {
		p.Backoff = time.Millisecond
	}
	if p.SpeedupPenalty <= 0 {
		p.SpeedupPenalty = 0.25
	}
	if p.EDPPenalty <= 0 {
		p.EDPPenalty = 4.0
	}
	return p
}

// isCtxErr reports whether err stems from context cancellation or deadline
// expiry (the two failures graceful degradation must not swallow).
func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
