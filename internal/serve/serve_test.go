package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"compisa/internal/eval"
	"compisa/internal/fault"
	"compisa/internal/metrics"
)

// fakeEngine is a controllable Engine: it can block evaluations until
// released (for coalescing/drain/admission sequencing) and fail them with
// a chosen error (for status mapping).
type fakeEngine struct {
	mu      sync.Mutex
	evals   int
	entered chan struct{} // when non-nil, receives one token per Evaluate entry
	release chan struct{} // when non-nil, Evaluate blocks on it (or ctx)
	err     error
}

func (f *fakeEngine) Evals() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.evals
}

func (f *fakeEngine) ReferenceMetrics(ctx context.Context) ([]eval.Metric, error) {
	return []eval.Metric{{Cycles: 100, Energy: 1}}, nil
}

func (f *fakeEngine) Evaluate(ctx context.Context, dp eval.DesignPoint, ref []eval.Metric) (*eval.Candidate, error) {
	f.mu.Lock()
	f.evals++
	f.mu.Unlock()
	if f.entered != nil {
		f.entered <- struct{}{}
	}
	if f.release != nil {
		select {
		case <-f.release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	if f.err != nil {
		return nil, f.err
	}
	return &eval.Candidate{
		DP: dp, AreaMM2: 10, PeakW: 5,
		Speedup: []float64{1.25}, NormEDP: []float64{0.8}, Degraded: []bool{false},
	}, nil
}

// PersistDegraded makes fakeEngine a persisting engine whose store is
// always healthy, so /metrics carries the store gauge.
func (f *fakeEngine) PersistDegraded() bool { return false }

func isaKeys(t *testing.T, n int) []string {
	t.Helper()
	keys := eval.ChoiceKeys()
	if len(keys) < n {
		t.Fatalf("need %d ISA keys, have %d", n, len(keys))
	}
	return keys[:n]
}

// waitFor polls cond to true within a deadline generous enough for -race.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

// TestCoalescing: N concurrent requests for one design point collapse onto
// a single engine evaluation; every caller gets the shared result.
func TestCoalescing(t *testing.T) {
	eng := &fakeEngine{release: make(chan struct{})}
	s := New(eng, Config{Workers: 4})
	key := isaKeys(t, 1)[0]
	dp, err := resolvePoint(PointRequest{ISA: key})
	if err != nil {
		t.Fatal(err)
	}

	const n = 8
	results := make([]PointResult, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = s.evalOne(context.Background(), PointRequest{ISA: key})
		}(i)
	}
	// Release only once the leader is inside the engine and all other
	// callers have coalesced onto its flight.
	waitFor(t, "all callers riding one evaluation", func() bool {
		return eng.Evals() == 1 && s.flight.waiting(dp.CacheKey()) == n-1
	})
	close(eng.release)
	wg.Wait()

	if got := eng.Evals(); got != 1 {
		t.Fatalf("%d concurrent identical requests ran %d evaluations, want 1", n, got)
	}
	coalesced := 0
	for i, r := range results {
		if r.Error != "" {
			t.Errorf("request %d failed: %s", i, r.Error)
		}
		if r.MeanSpeedup != 1.25 {
			t.Errorf("request %d speedup = %v, want 1.25", i, r.MeanSpeedup)
		}
		if r.Coalesced {
			coalesced++
		}
	}
	if coalesced != n-1 {
		t.Errorf("%d results marked coalesced, want %d", coalesced, n-1)
	}
	if got := s.stats.Evaluations.Load(); got != 1 {
		t.Errorf("stats.Evaluations = %d, want 1", got)
	}
	if got := s.stats.Coalesced.Load(); got != n-1 {
		t.Errorf("stats.Coalesced = %d, want %d", got, n-1)
	}

	// A later identical request is reported as served-from-cache.
	r := s.evalOne(context.Background(), PointRequest{ISA: key})
	if !r.Cached {
		t.Error("repeat request not marked cached")
	}
	if got := s.stats.CacheHits.Load(); got != 1 {
		t.Errorf("stats.CacheHits = %d, want 1", got)
	}
}

// TestDeadlineExpiry: a caller deadline expiring mid-evaluation answers 504
// with a Retry-After hint, and the detached evaluation goroutine winds down
// at the server timeout instead of leaking.
func TestDeadlineExpiry(t *testing.T) {
	eng := &fakeEngine{release: make(chan struct{})} // never released: only ctx ends it
	s := New(eng, Config{Workers: 2, Timeout: 150 * time.Millisecond})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	base := runtime.NumGoroutine()

	resp, body := postJSON(t, ts.URL+"/evaluate", EvaluateRequest{ISA: isaKeys(t, 1)[0], DeadlineMS: 40})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504; body %s", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("504 carries no Retry-After header")
	}
	var er EvaluateResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if len(er.Results) != 1 || er.Results[0].Status != http.StatusGatewayTimeout {
		t.Errorf("per-point status = %+v, want one 504", er.Results)
	}
	if got := s.stats.Timeouts.Load(); got != 1 {
		t.Errorf("stats.Timeouts = %d, want 1", got)
	}

	// The evaluation was detached from the dead caller; it must end at the
	// server timeout, leaving no goroutine behind (keep-alive connections
	// are the client's, not the evaluation's — shed them before counting).
	waitFor(t, "evaluation goroutines to wind down", func() bool {
		if s.flight.waiting("") != 0 || len(s.sem) != 0 {
			return false
		}
		http.DefaultClient.CloseIdleConnections()
		runtime.GC()
		return runtime.NumGoroutine() <= base+2
	})
}

// TestDrain: draining answers new work with 503 + Retry-After while the
// in-flight request runs to completion, and Drain returns once it has.
func TestDrain(t *testing.T) {
	eng := &fakeEngine{entered: make(chan struct{}, 1), release: make(chan struct{})}
	s := New(eng, Config{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	key := isaKeys(t, 1)[0]

	type reply struct {
		code int
		body []byte
	}
	inflight := make(chan reply, 1)
	go func() {
		resp, body := postJSON(t, ts.URL+"/evaluate", EvaluateRequest{ISA: key})
		inflight <- reply{resp.StatusCode, body}
	}()
	<-eng.entered

	drained := make(chan error, 1)
	go func() { drained <- s.Drain(context.Background()) }()
	waitFor(t, "server to start draining", s.Draining)

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining healthz = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("draining healthz carries no Retry-After")
	}
	if resp, _ := postJSON(t, ts.URL+"/evaluate", EvaluateRequest{ISA: key}); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining evaluate = %d, want 503", resp.StatusCode)
	}

	close(eng.release)
	got := <-inflight
	if got.code != http.StatusOK {
		t.Errorf("in-flight request finished %d, want 200; body %s", got.code, got.body)
	}
	if err := <-drained; err != nil {
		t.Errorf("Drain: %v", err)
	}
}

// TestAdmission: with one worker and a queue of one, a third distinct
// request is rejected with 429 instead of waiting unboundedly.
func TestAdmission(t *testing.T) {
	eng := &fakeEngine{entered: make(chan struct{}, 3), release: make(chan struct{})}
	s := New(eng, Config{Workers: 1, Queue: 1})
	keys := isaKeys(t, 3)

	results := make([]PointResult, 2)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		results[0] = s.evalOne(context.Background(), PointRequest{ISA: keys[0]})
	}()
	<-eng.entered // first request holds the worker slot
	wg.Add(1)
	go func() {
		defer wg.Done()
		results[1] = s.evalOne(context.Background(), PointRequest{ISA: keys[1]})
	}()
	waitFor(t, "second request to occupy the queue", func() bool { return len(s.queued) == 2 })

	r := s.evalOne(context.Background(), PointRequest{ISA: keys[2]})
	if r.Status != http.StatusTooManyRequests {
		t.Fatalf("third request status = %d (%s), want 429", r.Status, r.Error)
	}
	if r.RetryAfterS <= 0 {
		t.Error("429 carries no retry_after_s hint")
	}
	if got := s.stats.Rejected.Load(); got != 1 {
		t.Errorf("stats.Rejected = %d, want 1", got)
	}

	close(eng.release)
	wg.Wait()
	for i, r := range results {
		if r.Error != "" {
			t.Errorf("admitted request %d failed: %s", i, r.Error)
		}
	}
}

// TestStatusMapping: evaluation failures surface as the taxonomy's HTTP
// statuses on single-point requests.
func TestStatusMapping(t *testing.T) {
	key := eval.ChoiceKeys()[0]
	cases := []struct {
		name       string
		isa        string
		err        error
		wantStatus int
		wantRetry  bool
	}{
		{"transient fault -> 503", key,
			&fault.Error{Stage: fault.StageExec, Region: "r", ISA: key, Transient: true, Err: errors.New("boom")},
			http.StatusServiceUnavailable, true},
		{"deterministic verify fault -> 422", key,
			&fault.Error{Stage: fault.StageVerify, Region: "r", ISA: key, Err: errors.New("illegal opcode")},
			http.StatusUnprocessableEntity, false},
		{"deterministic model fault -> 500", key,
			&fault.Error{Stage: fault.StageModel, Region: "r", ISA: key, Err: errors.New("nan")},
			http.StatusInternalServerError, false},
		{"unknown ISA -> 400", "no-such-isa", nil, http.StatusBadRequest, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng := &fakeEngine{err: tc.err}
			s := New(eng, Config{Workers: 1})
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()
			resp, body := postJSON(t, ts.URL+"/evaluate", EvaluateRequest{ISA: tc.isa})
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status = %d, want %d; body %s", resp.StatusCode, tc.wantStatus, body)
			}
			if tc.wantRetry && resp.Header.Get("Retry-After") == "" {
				t.Error("transient failure carries no Retry-After header")
			}
		})
	}
}

// TestBatch: a batch mixes per-point successes and failures in one 200
// response instead of failing wholesale.
func TestBatch(t *testing.T) {
	eng := &fakeEngine{}
	s := New(eng, Config{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	key := isaKeys(t, 1)[0]

	resp, body := postJSON(t, ts.URL+"/evaluate", EvaluateRequest{
		Points: []PointRequest{{ISA: key}, {ISA: "bogus"}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status = %d, want 200; body %s", resp.StatusCode, body)
	}
	var er EvaluateResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if len(er.Results) != 2 || er.Errors != 1 {
		t.Fatalf("results = %+v", er)
	}
	if er.Results[0].MeanSpeedup != 1.25 || er.Results[0].Error != "" {
		t.Errorf("valid point = %+v", er.Results[0])
	}
	if er.Results[1].Status != http.StatusBadRequest {
		t.Errorf("bogus point status = %d, want 400", er.Results[1].Status)
	}

	// An empty request names no work.
	if resp, _ := postJSON(t, ts.URL+"/evaluate", EvaluateRequest{}); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty request = %d, want 400", resp.StatusCode)
	}
	// Oversized batches are redirected to /explore.
	big := EvaluateRequest{Points: make([]PointRequest, MaxBatch+1)}
	for i := range big.Points {
		big.Points[i] = PointRequest{ISA: key}
	}
	if resp, _ := postJSON(t, ts.URL+"/evaluate", big); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized batch = %d, want 400", resp.StatusCode)
	}
}

// TestExploreJob: an async sweep is accepted with a job id and polls to
// completion with one result per point.
func TestExploreJob(t *testing.T) {
	eng := &fakeEngine{}
	s := New(eng, Config{Workers: 4})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	keys := isaKeys(t, 3)

	resp, body := postJSON(t, ts.URL+"/explore", ExploreRequest{ISAs: keys})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("explore status = %d, want 202; body %s", resp.StatusCode, body)
	}
	var jr JobResponse
	if err := json.Unmarshal(body, &jr); err != nil {
		t.Fatal(err)
	}
	if jr.ID == "" || jr.Total != len(keys) {
		t.Fatalf("job header = %+v", jr)
	}

	waitFor(t, "job completion", func() bool {
		resp, body := getJSON(t, ts.URL+"/explore/"+jr.ID, &jr)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("poll status = %d; body %s", resp.StatusCode, body)
		}
		return jr.Status != "running"
	})
	if jr.Status != "done" || jr.Errors != 0 || len(jr.Results) != len(keys) {
		t.Fatalf("finished job = %+v", jr)
	}
	for i, r := range jr.Results {
		if r.ISA != keys[i] || r.MeanSpeedup != 1.25 {
			t.Errorf("result %d = %+v", i, r)
		}
	}

	resp, _ = getJSON(t, ts.URL+"/explore/job-999", &jr)
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job = %d, want 404", resp.StatusCode)
	}
}

func getJSON(t *testing.T, url string, v any) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		if err := json.Unmarshal(body, v); err != nil {
			t.Fatalf("decode %s: %v (%s)", url, err, body)
		}
	}
	return resp, body
}

// TestHealthzAndMetrics: the observability endpoints answer, and /metrics
// carries both serving-layer and evaluation-layer families.
func TestHealthzAndMetrics(t *testing.T) {
	eng := &fakeEngine{}
	es := &eval.Stats{}
	es.ModelEvals.Add(3)
	s := New(eng, Config{Workers: 2, EvalStats: es})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var h HealthResponse
	if resp, _ := getJSON(t, ts.URL+"/healthz", &h); resp.StatusCode != http.StatusOK || h.Status != "ok" {
		t.Fatalf("healthz = %d %+v", resp.StatusCode, h)
	}

	postJSON(t, ts.URL+"/evaluate", EvaluateRequest{ISA: isaKeys(t, 1)[0]})

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("metrics content type = %q", ct)
	}
	text := string(body)
	for _, w := range []string{
		"compisa_serve_requests_total",
		"compisa_serve_evaluations_total 1",
		"compisa_serve_point_duration_seconds_bucket",
		"compisa_serve_point_duration_seconds_count 1",
		fmt.Sprintf("compisa_eval_stage_total{stage=%q} 3", "model"),
	} {
		if !strings.Contains(text, w) {
			t.Errorf("metrics output missing %q\n%s", w, text)
		}
	}
}

// TestMetricsExposeEveryEvalStat: every eval.StatsSnapshot field, set alone
// through Merge, changes the compisa_eval_* families on /metrics. Walking
// the struct by reflection catches a counter added to eval.Stats but never
// exported here.
func TestMetricsExposeEveryEvalStat(t *testing.T) {
	evalLines := func(es *eval.Stats) string {
		s := New(&fakeEngine{}, Config{Workers: 1, EvalStats: es})
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		var sb strings.Builder
		for _, line := range strings.Split(rec.Body.String(), "\n") {
			if strings.HasPrefix(line, "compisa_eval_") {
				sb.WriteString(line + "\n")
			}
		}
		return sb.String()
	}
	zero := evalLines(&eval.Stats{})
	if zero == "" {
		t.Fatal("no compisa_eval_* lines with EvalStats wired")
	}

	var h metrics.Histogram
	h.Observe(3 * time.Millisecond)
	typ := reflect.TypeOf(eval.StatsSnapshot{})
	for i := 0; i < typ.NumField(); i++ {
		var sn eval.StatsSnapshot
		f := reflect.ValueOf(&sn).Elem().Field(i)
		switch f.Interface().(type) {
		case int64:
			f.SetInt(7)
		case metrics.HistogramSnapshot:
			f.Set(reflect.ValueOf(h.Snapshot()))
		default:
			t.Fatalf("StatsSnapshot.%s: unhandled type %s", typ.Field(i).Name, f.Type())
		}
		es := &eval.Stats{}
		es.Merge(sn)
		if evalLines(es) == zero {
			t.Errorf("StatsSnapshot.%s does not reach /metrics", typ.Field(i).Name)
		}
	}
}

// flakyPersister fails every write while down.
type flakyPersister struct {
	mu   sync.Mutex
	down bool
}

func (p *flakyPersister) Put(key string, val []byte) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.down {
		return errors.New("disk on fire")
	}
	return nil
}

func (p *flakyPersister) setDown(down bool) {
	p.mu.Lock()
	p.down = down
	p.mu.Unlock()
}

// TestServeWithStoreDown is the acceptance check for degraded-mode serving:
// with the DB's durable tier hard-down, evaluation requests keep answering
// 200 (never 5xx), /healthz reports status "degraded" and /metrics sets the
// degraded gauge; the next profile set written once the store is back
// clears both.
func TestServeWithStoreDown(t *testing.T) {
	p := &flakyPersister{down: true}
	db := eval.NewDB()
	db.Regions = db.Regions[:1]
	db.Persist = p
	s := New(db, Config{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	health := func() (int, HealthResponse, string) {
		t.Helper()
		hr, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		var h HealthResponse
		if err := json.NewDecoder(hr.Body).Decode(&h); err != nil {
			t.Fatal(err)
		}
		hr.Body.Close()
		mr, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		mb, _ := io.ReadAll(mr.Body)
		mr.Body.Close()
		return hr.StatusCode, h, string(mb)
	}
	if _, h, _ := health(); h.Status != "ok" {
		t.Fatalf("healthz before any write = %+v, want status ok", h)
	}

	keys := isaKeys(t, 4)
	for i, key := range keys[:3] {
		resp, body := postJSON(t, ts.URL+"/evaluate", EvaluateRequest{ISA: key})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("evaluate %d with store down: status %d, body %s", i, resp.StatusCode, body)
		}
	}
	if db.Stats.PersistErrors.Load() == 0 {
		t.Fatal("no profile-set write reached the failing store")
	}
	code, h, metrics := health()
	if code != http.StatusOK || h.Status != "degraded" {
		t.Fatalf("healthz with store down = %d %+v, want 200 and status degraded", code, h)
	}
	if !strings.Contains(metrics, "compisa_serve_store_degraded 1") {
		t.Fatalf("metrics missing degraded gauge:\n%s", metrics)
	}

	// The store comes back: the next fresh profile set is written and the
	// server is healthy again.
	p.setDown(false)
	if resp, body := postJSON(t, ts.URL+"/evaluate", EvaluateRequest{ISA: keys[3]}); resp.StatusCode != http.StatusOK {
		t.Fatalf("evaluate after recovery: status %d, body %s", resp.StatusCode, body)
	}
	code, h, metrics = health()
	if code != http.StatusOK || h.Status != "ok" || !strings.Contains(metrics, "compisa_serve_store_degraded 0") {
		t.Fatalf("healthz after recovery = %d %+v, want 200 and status ok with the gauge at 0", code, h)
	}
}
