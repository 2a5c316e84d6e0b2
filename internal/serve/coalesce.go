package serve

import (
	"context"
	"sync"
	"sync/atomic"
)

// flightCall is one in-progress computation; duplicate callers wait on done
// instead of recomputing.
type flightCall[V any] struct {
	done    chan struct{}
	joiners atomic.Int32 // callers beyond the leader (tests sequence on this)
	v       V
	err     error
}

// flightGroup collapses concurrent computations for one key onto a single
// execution — the request-coalescing half of the serving layer. Like
// par.Memo, the pipeline's singleflight cache, each waiter honors its own
// context, so per-request deadlines expire individually while the shared
// work continues for whoever remains. Its contract differs from par.Memo's
// in three ways the service needs:
//
//   - the computation runs in its own goroutine, detached from the caller
//     that happened to arrive first, so one client hanging up never fails
//     the joiners riding its evaluation (par.Memo's leader runs fn inline
//     under its own context);
//   - nothing is kept: a finished call is forgotten, and the eval.DB behind
//     it is the cache;
//   - no retry: every waiter gets the call's error, where a par.Memo
//     waiter whose call failed tries again.
type flightGroup[V any] struct {
	mu    sync.Mutex
	calls map[string]*flightCall[V]
}

// Do returns fn's result for key, starting fn only if no computation for
// key is in flight. joined reports whether this caller coalesced onto an
// execution started by an earlier caller. When ctx expires before the
// computation finishes, Do returns ctx.Err() but the computation keeps
// running for other waiters (fn must manage its own lifetime).
func (g *flightGroup[V]) Do(ctx context.Context, key string, fn func() (V, error)) (v V, joined bool, err error) {
	g.mu.Lock()
	if g.calls == nil {
		g.calls = map[string]*flightCall[V]{}
	}
	c, ok := g.calls[key]
	if ok {
		c.joiners.Add(1)
	} else {
		c = &flightCall[V]{done: make(chan struct{})}
		g.calls[key] = c
		go func() {
			c.v, c.err = fn()
			g.mu.Lock()
			delete(g.calls, key)
			g.mu.Unlock()
			close(c.done)
		}()
	}
	g.mu.Unlock()
	select {
	case <-c.done:
		return c.v, ok, c.err
	case <-ctx.Done():
		return v, ok, ctx.Err()
	}
}

// waiting reports how many callers have coalesced onto key's in-flight
// call (0 when none is registered). Tests use it to release a blocked
// computation only once every expected joiner is riding it.
func (g *flightGroup[V]) waiting(key string) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	if c, ok := g.calls[key]; ok {
		return int(c.joiners.Load())
	}
	return 0
}
