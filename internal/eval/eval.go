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
//     drivers, and (re-scored from a saved run) processes.
//
// Both stages run on internal/par worker pools and are instrumented
// through internal/metrics (DB.Stats).
package eval

import (
	"context"
	"errors"
	"time"
)

// MaxRegionInstrs bounds each region's functional execution.
const MaxRegionInstrs = 40_000_000

// runawayInstrs is the tiny instruction budget applied under an injected
// runaway fault: far below any region's real dynamic count, so the
// instruction-budget watchdog fires through the ordinary execution path.
const runawayInstrs = 10_000

// Fault-handling policy. Only transient faults are retried.
const (
	// maxAttempts bounds evaluation attempts per (region, ISA) pair.
	maxAttempts = 3
	// retryBackoff is the delay before the first retry, doubled on each
	// subsequent attempt.
	retryBackoff = time.Millisecond
	// speedupPenalty is the speedup recorded for a quarantined (region,
	// ISA) pair: the pair scores as running 4x slower than the reference,
	// so searches steer away from — but survive — failures.
	speedupPenalty = 0.25
	// edpPenalty is the normalized EDP recorded for a quarantined pair (the
	// EDP dual of speedupPenalty).
	edpPenalty = 4.0
)

// IsCtxErr reports whether err stems from context cancellation or deadline
// expiry (the two failures graceful degradation must not swallow).
func IsCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
