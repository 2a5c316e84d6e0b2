package par

import (
	"context"
	"errors"
	"sync"
	"testing"
)

// joinCtx wraps a context so that the first call of Done sends on joined.
// Do selects on Done only while it waits on another caller's computation,
// so the send marks a waiter that has joined one.
type joinCtx struct {
	context.Context
	once   sync.Once
	joined chan<- struct{}
}

func (c *joinCtx) Done() <-chan struct{} {
	c.once.Do(func() { c.joined <- struct{}{} })
	return c.Context.Done()
}

// stalledMemo returns a memo and starts a leader for key 0 whose fn blocks
// until release is closed and then returns result(). The leader's own
// outcome goes to done. Waiters that run Do under &joinCtx{ctx, joined}
// signal on joined once they wait on that leader.
func stalledMemo(t *testing.T, result func() (int, error)) (m *Memo[int, int], joined chan struct{}, release chan struct{}, done chan error) {
	t.Helper()
	joined = make(chan struct{}, 16)
	m = &Memo[int, int]{}
	release = make(chan struct{})
	started := make(chan struct{})
	done = make(chan error, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				done <- errors.New("leader panicked")
			}
		}()
		_, _, err := m.Do(context.Background(), 0, func() (int, error) {
			close(started)
			<-release
			return result()
		})
		done <- err
	}()
	<-started
	return m, joined, release, done
}

// TestMemoKeepsSuccess: the leader's value is kept; every joiner of its call
// and every later caller gets it with shared set, and fn runs once.
func TestMemoKeepsSuccess(t *testing.T) {
	m, joined, release, done := stalledMemo(t, func() (int, error) { return 7, nil })
	const waiters = 4
	var wg sync.WaitGroup
	got := make([]int, waiters)
	shared := make([]bool, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, s, err := m.Do(&joinCtx{Context: context.Background(), joined: joined}, 0, func() (int, error) {
				t.Error("a joiner ran fn")
				return 0, nil
			})
			if err != nil {
				t.Error(err)
			}
			got[i], shared[i] = v, s
		}(i)
	}
	for i := 0; i < waiters; i++ {
		<-joined
	}
	if n := m.Len(); n != 0 {
		t.Errorf("Len = %d while the only call is in flight, want 0", n)
	}
	close(release)
	wg.Wait()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != 7 || !shared[i] {
			t.Errorf("joiner %d: got %d shared=%v, want 7 shared=true", i, got[i], shared[i])
		}
	}
	v, s, err := m.Do(context.Background(), 0, func() (int, error) {
		t.Error("fn ran for a kept key")
		return 0, nil
	})
	if v != 7 || !s || err != nil {
		t.Errorf("later caller: got %d shared=%v err=%v, want 7 shared=true", v, s, err)
	}
	// Other keys are independent.
	if v, s, _ := m.Do(context.Background(), 1, func() (int, error) { return 9, nil }); v != 9 || s {
		t.Errorf("key 1: got %d shared=%v, want 9 led", v, s)
	}
	if n := m.Len(); n != 2 {
		t.Errorf("Len = %d, want 2 kept keys", n)
	}
}

// TestMemoFailureNotKept: a failed call is removed; its waiter tries again
// and leads a call of its own, whose value is then kept.
func TestMemoFailureNotKept(t *testing.T) {
	boom := errors.New("boom")
	m, joined, release, done := stalledMemo(t, func() (int, error) { return 0, boom })
	res := make(chan int, 1)
	go func() {
		v, s, err := m.Do(&joinCtx{Context: context.Background(), joined: joined}, 0, func() (int, error) { return 5, nil })
		if err != nil || s {
			t.Errorf("waiter of a failed call: shared=%v err=%v, want its own result", s, err)
		}
		res <- v
	}()
	<-joined
	close(release)
	if err := <-done; !errors.Is(err, boom) {
		t.Fatalf("leader: err = %v, want boom", err)
	}
	if v := <-res; v != 5 {
		t.Fatalf("waiter of a failed call got %d, want its own 5", v)
	}
	if v, s, _ := m.Do(context.Background(), 0, func() (int, error) { return 0, boom }); v != 5 || !s {
		t.Errorf("after the retry: got %d shared=%v, want the kept 5", v, s)
	}
	// Sequentially, too: an error is returned to its caller only.
	calls := 0
	fail := func() (int, error) { calls++; return 0, boom }
	for i := 0; i < 2; i++ {
		if _, _, err := m.Do(context.Background(), 1, fail); !errors.Is(err, boom) {
			t.Fatalf("call %d: err = %v, want boom", i, err)
		}
	}
	if calls != 2 {
		t.Errorf("fn ran %d times for two calls after a failure, want 2 (failures are not kept)", calls)
	}
	if n := m.Len(); n != 1 {
		t.Errorf("Len = %d, want 1 (key 0's value; key 1 only failed)", n)
	}
}

// TestMemoWaiterCancelled: a waiter whose own context ends returns ctx.Err()
// while the leader keeps going; a waiter whose context ended by the time
// its leader failed does not try again.
func TestMemoWaiterCancelled(t *testing.T) {
	m, joined, release, done := stalledMemo(t, func() (int, error) { return 3, nil })
	ctx, cancel := context.WithCancel(context.Background())
	res := make(chan error, 1)
	go func() {
		_, _, err := m.Do(&joinCtx{Context: ctx, joined: joined}, 0, func() (int, error) {
			t.Error("a cancelled waiter ran fn")
			return 0, nil
		})
		res <- err
	}()
	<-joined
	cancel()
	if err := <-res; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter: err = %v, want context.Canceled", err)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// A kept value is returned whatever the caller's context.
	if v, s, err := m.Do(ctx, 0, nil); v != 3 || !s || err != nil {
		t.Errorf("kept value under a cancelled context: got %d shared=%v err=%v", v, s, err)
	}

	// Its Done never fires, so the waiter sees the failed call first and
	// then finds its context ended.
	m, joined, release, done = stalledMemo(t, func() (int, error) { return 0, context.Canceled })
	go func() {
		_, _, err := m.Do(&joinCtx{Context: endedCtx{context.Background()}, joined: joined}, 0, func() (int, error) {
			t.Error("a waiter retried under its own ended context")
			return 0, nil
		})
		res <- err
	}()
	<-joined
	close(release)
	<-done
	if err := <-res; !errors.Is(err, context.Canceled) {
		t.Fatalf("waiter of a failed call, own context ended: err = %v, want context.Canceled", err)
	}
}

// endedCtx is a context whose Err reports cancellation but whose Done
// never fires.
type endedCtx struct{ context.Context }

func (endedCtx) Err() error { return context.Canceled }

// TestMemoPanicStrandsNoWaiter: a panic in the leader's fn propagates to the
// leader, and its waiter leads a fresh call instead of hanging.
func TestMemoPanicStrandsNoWaiter(t *testing.T) {
	m, joined, release, done := stalledMemo(t, func() (int, error) { panic("kaboom") })
	res := make(chan int, 1)
	go func() {
		v, _, err := m.Do(&joinCtx{Context: context.Background(), joined: joined}, 0, func() (int, error) { return 4, nil })
		if err != nil {
			t.Error(err)
		}
		res <- v
	}()
	<-joined
	close(release)
	if err := <-done; err == nil || err.Error() != "leader panicked" {
		t.Fatalf("leader: %v, want its panic", err)
	}
	if v := <-res; v != 4 {
		t.Fatalf("waiter of a panicking call got %d, want its own 4", v)
	}
	if n := m.Len(); n != 1 {
		t.Errorf("Len = %d, want 1 (the waiter's value, not the panicked call)", n)
	}
}
