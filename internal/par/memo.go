package par

import (
	"context"
	"sync"
)

// Memo is a keyed singleflight cache: Do runs at most one computation per
// key at a time and keeps its value once it succeeds. Its contract:
//
//   - the caller that finds no kept or in-flight call for a key leads: it
//     runs its own fn inline, under its own context;
//   - a value is kept only when fn succeeds; a failed, cancelled or
//     panicking call is removed, so failures are never kept;
//   - every other caller waits on its own ctx. If the call it waited on
//     failed, it checks ctx and then tries again, leading a fresh call or
//     joining a newer one, so one caller's cancellation never fails
//     another. It retries after any failure, not only a cancellation: n
//     callers of a key whose fn always fails run it n times in turn;
//   - the leader's cleanup is deferred, so a panic in fn (recovered by the
//     leader's caller) strands no waiter.
//
// The zero value is ready to use. Kept values live as long as the Memo.
type Memo[K comparable, V any] struct {
	mu    sync.Mutex
	calls map[K]*memoCall[V]
}

// memoCall is one computation of a key. done is closed when its leader
// returns; kept and v are written under the Memo's lock before that.
type memoCall[V any] struct {
	done chan struct{}
	kept bool
	v    V
}

// Do returns the value for k, running fn only if no value is kept and no
// call for k is in flight. shared reports that the value came from another
// caller's fn. A waiter whose ctx ends first returns ctx.Err().
func (m *Memo[K, V]) Do(ctx context.Context, k K, fn func() (V, error)) (v V, shared bool, err error) {
	for {
		m.mu.Lock()
		c, found := m.calls[k]
		if !found {
			if m.calls == nil {
				m.calls = map[K]*memoCall[V]{}
			}
			c = &memoCall[V]{done: make(chan struct{})}
			m.calls[k] = c
			m.mu.Unlock()
			v, err = m.lead(k, c, fn)
			return v, false, err
		}
		kept := c.kept
		m.mu.Unlock()
		if !kept {
			select {
			case <-c.done:
			case <-ctx.Done():
				return v, false, ctx.Err()
			}
			if !c.kept {
				if err := ctx.Err(); err != nil {
					return v, false, err
				}
				continue
			}
		}
		return c.v, true, nil
	}
}

// Len returns the number of keys whose value is kept.
func (m *Memo[K, V]) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, c := range m.calls {
		if c.kept {
			n++
		}
	}
	return n
}

// lead runs fn for a call this caller registered, then keeps its value or
// removes the call, and wakes the waiters, even if fn panics.
func (m *Memo[K, V]) lead(k K, c *memoCall[V], fn func() (V, error)) (v V, err error) {
	ok := false
	defer func() {
		m.mu.Lock()
		if ok {
			c.kept, c.v = true, v
		} else {
			delete(m.calls, k)
		}
		m.mu.Unlock()
		close(c.done)
	}()
	v, err = fn()
	ok = err == nil
	return v, err
}
