// Package par is the parallelism layer under the evaluation pipeline
// (par → eval → explore; see DESIGN.md, "Pipeline layering"): a generic
// bounded, context-aware parallel map with panic recovery and first-error
// propagation, and Memo, the keyed singleflight cache every shared
// computation of the pipeline goes through. They replace the hand-rolled
// worker pools and leader/waiter protocols that used to be copied across
// the evaluation and exploration code.
//
// All entry points share the same worker model: indices [0, n) are handed
// out in order from an atomic counter to at most `limit` workers, so work
// starts in index order and the concurrency bound is exact. A panic inside
// the callback is recovered into a *PanicError instead of crashing the
// process, and context cancellation stops unstarted work promptly.
package par

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// DefaultLimit is the worker bound used when a caller passes limit <= 0:
// one worker per available CPU.
func DefaultLimit() int { return runtime.GOMAXPROCS(0) }

// PanicError wraps a panic recovered inside a worker callback, preserving
// the panicking index, value, and stack.
type PanicError struct {
	Index int
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("par: recovered panic at index %d: %v\n%s", e.Index, e.Value, e.Stack)
}

// Map evaluates fn(i) for every i in [0, n) with at most limit calls in
// flight (limit <= 0 uses DefaultLimit) and returns the results. The first
// failure stops unstarted work and is returned (the lowest-index error
// among the calls that ran); on a clean run every result slot is valid.
// Cancelling ctx aborts unstarted work and surfaces ctx.Err(). A panic in
// fn is returned as a *PanicError.
func Map[T any](ctx context.Context, n, limit int, fn func(i int) (T, error)) ([]T, error) {
	res := make([]T, n)
	errs := run(ctx, n, limit, true, func(i int) error {
		v, err := fn(i)
		if err != nil {
			return err
		}
		res[i] = v
		return nil
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return res, nil
}

// ForEach is Map without results: it runs fn over [0, n) with bounded
// concurrency and returns the lowest-index error, if any.
func ForEach(ctx context.Context, n, limit int, fn func(i int) error) error {
	_, err := Map(ctx, n, limit, func(i int) (struct{}, error) {
		return struct{}{}, fn(i)
	})
	return err
}

// MapAll is Map without fail-fast: every index runs to completion (unless
// ctx is cancelled, which marks the remaining slots with ctx.Err()), and
// the per-index errors are returned alongside the results so callers can
// triage failures individually — the retry/quarantine policy of the
// evaluation pipeline needs to know exactly which pairs failed, not just
// that one did. Panics are recovered into *PanicError like Map.
func MapAll[T any](ctx context.Context, n, limit int, fn func(i int) (T, error)) ([]T, []error) {
	res := make([]T, n)
	errs := run(ctx, n, limit, false, func(i int) error {
		v, err := fn(i)
		if err != nil {
			return err
		}
		res[i] = v
		return nil
	})
	return res, errs
}

// run is the shared worker pool. With failFast set, the first error (or
// cancellation) prevents unstarted indices from running; their error slots
// stay nil, which is safe because a slot can only be skipped after some
// lower-or-equal pulled index recorded a real error.
func run(ctx context.Context, n, limit int, failFast bool, fn func(i int) error) []error {
	errs := make([]error, n)
	if n == 0 {
		return errs
	}
	if limit <= 0 {
		limit = DefaultLimit()
	}
	if limit > n {
		limit = n
	}
	var (
		next atomic.Int64
		stop atomic.Bool
		wg   sync.WaitGroup
	)
	call := func(i int) (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = &PanicError{Index: i, Value: r, Stack: debug.Stack()}
			}
		}()
		return fn(i)
	}
	wg.Add(limit)
	for w := 0; w < limit; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if failFast && stop.Load() {
					return
				}
				if err := ctx.Err(); err != nil {
					errs[i] = err
					if failFast {
						stop.Store(true)
						return
					}
					continue
				}
				if err := call(i); err != nil {
					errs[i] = err
					if failFast {
						stop.Store(true)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	return errs
}
