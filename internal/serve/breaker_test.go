package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// flakyPersister fails while down, tracking every attempted write.
type flakyPersister struct {
	mu    sync.Mutex
	down  bool
	puts  int
	calls []string
}

func (p *flakyPersister) Put(key string, val []byte) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.calls = append(p.calls, key)
	if p.down {
		return errors.New("disk on fire")
	}
	p.puts++
	return nil
}

func (p *flakyPersister) setDown(down bool) {
	p.mu.Lock()
	p.down = down
	p.mu.Unlock()
}

func (p *flakyPersister) attempts() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.calls)
}

// TestBreakerTripAndRecover walks the full state machine: Threshold
// consecutive failures open the circuit, writes are skipped while open, the
// post-window probe reaches the persister, and a successful probe closes
// the circuit again.
func TestBreakerTripAndRecover(t *testing.T) {
	p := &flakyPersister{down: true}
	clock := time.Unix(1000, 0)
	b := NewStoreBreaker(p, BreakerConfig{
		Threshold: 3,
		OpenFor:   10 * time.Second,
		now:       func() time.Time { return clock },
	})
	rec := []byte("{}")

	for i := 0; i < 3; i++ {
		if b.State() != BreakerClosed {
			t.Fatalf("state before failure %d = %s, want closed", i, b.State())
		}
		if err := b.Put(fmt.Sprintf("k%d", i), rec); err == nil {
			t.Fatal("expected persist failure")
		}
	}
	if b.State() != BreakerOpen {
		t.Fatalf("state after %d failures = %s, want open", 3, b.State())
	}
	if !b.Degraded() {
		t.Fatal("open circuit should report degraded")
	}

	// While open (window not elapsed) writes are skipped without touching
	// the persister.
	before := p.attempts()
	if err := b.Put("skipped", rec); !errors.Is(err, ErrStoreOpen) {
		t.Fatalf("open-circuit write: got %v, want ErrStoreOpen", err)
	}
	if p.attempts() != before {
		t.Fatal("open-circuit write reached the persister")
	}
	if got := b.Stats().Skipped.Load(); got != 1 {
		t.Fatalf("Skipped = %d, want 1", got)
	}

	// Window elapses but the store is still down: the probe goes through,
	// fails, and re-opens the circuit for another full window.
	clock = clock.Add(11 * time.Second)
	if err := b.Put("probe1", rec); err == nil {
		t.Fatal("probe against a down store should fail")
	}
	if b.State() != BreakerOpen {
		t.Fatalf("state after failed probe = %s, want open", b.State())
	}
	if err := b.Put("still-skipped", rec); !errors.Is(err, ErrStoreOpen) {
		t.Fatalf("post-failed-probe write: got %v, want ErrStoreOpen", err)
	}

	// Store recovers; next window's probe succeeds and closes the circuit.
	p.setDown(false)
	clock = clock.Add(11 * time.Second)
	if err := b.Put("probe2", rec); err != nil {
		t.Fatalf("recovery probe: %v", err)
	}
	if b.State() != BreakerClosed {
		t.Fatalf("state after successful probe = %s, want closed", b.State())
	}
	if b.Degraded() {
		t.Fatal("closed circuit should not report degraded")
	}
	if err := b.Put("normal", rec); err != nil {
		t.Fatalf("post-recovery write: %v", err)
	}
	if got := b.Stats().Trips.Load(); got != 2 {
		t.Fatalf("Trips = %d, want 2 (initial trip + failed probe)", got)
	}
	if got := b.Stats().Probes.Load(); got != 2 {
		t.Fatalf("Probes = %d, want 2", got)
	}
}

// TestBreakerIntermittentFailures: sub-threshold failure runs never open
// the circuit — a success resets the consecutive-failure count.
func TestBreakerIntermittentFailures(t *testing.T) {
	p := &flakyPersister{}
	b := NewStoreBreaker(p, BreakerConfig{Threshold: 3})
	rec := []byte("{}")
	for round := 0; round < 5; round++ {
		p.setDown(true)
		b.Put("a", rec)
		b.Put("b", rec)
		p.setDown(false)
		if err := b.Put("c", rec); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if b.State() != BreakerClosed {
			t.Fatalf("round %d: state = %s, want closed", round, b.State())
		}
	}
	if got := b.Stats().Trips.Load(); got != 0 {
		t.Fatalf("Trips = %d, want 0", got)
	}
}

// TestBreakerConcurrent hammers a breaker from many goroutines across
// up/down flips; the invariant is simply no panic/race and a sane final
// state (the race detector does the heavy lifting).
func TestBreakerConcurrent(t *testing.T) {
	p := &flakyPersister{}
	b := NewStoreBreaker(p, BreakerConfig{Threshold: 2, OpenFor: time.Millisecond})
	rec := []byte("{}")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if i%50 == 0 {
					p.setDown(i%100 == 0)
				}
				b.Put(fmt.Sprintf("w%d-%d", w, i), rec)
			}
		}(w)
	}
	wg.Wait()
	p.setDown(false)
	// Drive probes until the circuit closes again.
	waitFor(t, "circuit to close", func() bool {
		b.Put("drain", rec)
		return b.State() == BreakerClosed
	})
}

// TestServeWithStoreDown is the acceptance check for degraded-mode serving:
// with the durable tier hard-down, evaluation requests keep answering 200
// (never 5xx), /healthz reports status "degraded" with the circuit state,
// and /metrics exposes the degraded gauge.
func TestServeWithStoreDown(t *testing.T) {
	p := &flakyPersister{down: true}
	b := NewStoreBreaker(p, BreakerConfig{Threshold: 1, OpenFor: time.Hour})
	eng := &fakeEngine{}
	s := New(eng, Config{Workers: 2, Store: b})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Trip the circuit the way production would: a persist failure.
	b.Put("boom", nil)
	if b.State() != BreakerOpen {
		t.Fatalf("state = %s, want open", b.State())
	}

	for i, key := range isaKeys(t, 3) {
		resp, body := postJSON(t, ts.URL+"/evaluate", EvaluateRequest{ISA: key})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("evaluate %d with store down: status %d, body %s", i, resp.StatusCode, body)
		}
	}

	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h HealthResponse
	if err := json.NewDecoder(hr.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("degraded /healthz status = %d, want 200", hr.StatusCode)
	}
	if h.Status != "degraded" || h.Store != string(BreakerOpen) {
		t.Fatalf("healthz = %+v, want status degraded, store open", h)
	}

	mr, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb, _ := io.ReadAll(mr.Body)
	mr.Body.Close()
	if !strings.Contains(string(mb), "compisa_serve_store_degraded 1") {
		t.Fatalf("metrics missing degraded gauge:\n%s", mb)
	}
	if !strings.Contains(string(mb), "compisa_serve_store_trips_total 1") {
		t.Fatalf("metrics missing trips counter:\n%s", mb)
	}

	// And once healthy, /healthz drops back to ok with the circuit closed.
	p.setDown(false)
	bb := NewStoreBreaker(p, BreakerConfig{})
	s2 := New(eng, Config{Workers: 2, Store: bb})
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	hr2, err := http.Get(ts2.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h2 HealthResponse
	json.NewDecoder(hr2.Body).Decode(&h2)
	hr2.Body.Close()
	if h2.Status != "ok" || h2.Store != string(BreakerClosed) {
		t.Fatalf("healthy healthz = %+v, want status ok, store closed", h2)
	}
}
