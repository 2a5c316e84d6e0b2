// Package serve is the serving layer of the composite-ISA design-point
// evaluation pipeline: a long-lived HTTP/JSON service over internal/eval
// that amortizes the expensive profiling and scoring stages across every
// client instead of once per process.
//
// The request path is admission → coalesce → evaluate → degrade:
//
//   - admission: a bounded worker pool (the same exact-concurrency model as
//     internal/par) plus a bounded queue; excess load is rejected with 429
//     instead of queued without bound;
//   - coalescing: concurrent requests for one (ISA key, canonical config)
//     design point collapse onto a single evaluation via a singleflight
//     over eval's candidate cache, so a thundering herd costs one scoring
//     pass;
//   - evaluation: the shared eval.DB — both cache tiers, warm-startable
//     from a store directory compose-explore or an earlier boot wrote —
//     under a server-side deadline
//     detached from any individual caller;
//   - degradation: evaluation faults map onto typed HTTP statuses
//     (fault.HTTPStatus) with Retry-After hints for transient ones, and a
//     draining server answers 503 rather than hanging clients.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"compisa/internal/eval"
	"compisa/internal/fault"
	"compisa/internal/metrics"
	"compisa/internal/par"
)

// Engine is the slice of the evaluation layer the server drives. *eval.DB
// is the production implementation; tests substitute controllable fakes.
type Engine interface {
	// ReferenceMetrics returns the memoized normalization baseline.
	ReferenceMetrics(ctx context.Context) ([]eval.Metric, error)
	// Evaluate scores one design point against ref.
	Evaluate(ctx context.Context, dp eval.DesignPoint, ref []eval.Metric) (*eval.Candidate, error)
}

// MaxBatch bounds the number of points a single /evaluate request may
// carry; larger sweeps belong on the async /explore endpoint.
const MaxBatch = 256

// ErrOverloaded is returned (as a 429) when the admission queue is full.
var ErrOverloaded = errors.New("serve: admission queue full")

// errDraining maps to the 503 a draining server answers new work with.
var errDraining = errors.New("serve: draining")

// Config tunes the server. The zero value selects the documented defaults.
type Config struct {
	// Workers bounds concurrent evaluations (default par.DefaultLimit()).
	Workers int
	// Queue bounds evaluations waiting for a worker slot (default
	// 4*Workers); beyond it requests are rejected with 429.
	Queue int
	// Timeout is the server-side deadline for one design-point evaluation
	// (default 2m). A request's deadline_ms only shortens how long that
	// caller waits, never the evaluation itself.
	Timeout time.Duration
	// EvalStats, when set, exposes the evaluation pipeline's own counters
	// and histograms on /metrics alongside the server's.
	EvalStats *eval.Stats
	// Log, if set, receives serving events (rejections, faults, drain).
	Log func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = par.DefaultLimit()
	}
	if c.Queue <= 0 {
		c.Queue = 4 * c.Workers
	}
	if c.Timeout <= 0 {
		c.Timeout = 2 * time.Minute
	}
	return c
}

// Stats instruments the serving layer; all fields are lock-free and safe
// for concurrent use (their tags declare /metrics).
type Stats struct {
	Requests    metrics.Counter   `metric:"compisa_serve_requests_total" help:"HTTP requests accepted."` // all endpoints
	Points      metrics.Counter   `metric:"compisa_serve_points_total" help:"Design points requested."`  // across /evaluate and /explore
	Evaluations metrics.Counter   `metric:"compisa_serve_evaluations_total" help:"Evaluations started (coalescing leaders)."`
	Coalesced   metrics.Counter   `metric:"compisa_serve_coalesced_total" help:"Points that joined an in-flight evaluation."`
	CacheHits   metrics.Counter   `metric:"compisa_serve_cache_hits_total" help:"Points already evaluated by an earlier request."`
	Rejected    metrics.Counter   `metric:"compisa_serve_rejected_total" help:"Admission rejections (HTTP 429)."`
	Timeouts    metrics.Counter   `metric:"compisa_serve_timeouts_total" help:"Caller deadlines expired (HTTP 504)."`
	Faults      metrics.Counter   `metric:"compisa_serve_faults_total" help:"Evaluation errors surfaced to clients."`
	Latency     metrics.Histogram `metric:"compisa_serve_point_duration_seconds" help:"Per-point serving latency."`
}

// Server is the evaluation service. Construct with New; serve its
// Handler() with any http.Server; call Drain on shutdown.
type Server struct {
	cfg   Config
	eng   Engine
	stats Stats
	start time.Time

	sem    chan struct{} // worker slots
	queued chan struct{} // admission tickets (workers + queue)

	flight flightGroup[*eval.Candidate]

	mu   sync.Mutex
	done map[string]bool // cache keys known evaluated (cache-hit accounting)
	jobs map[string]*job
	seq  int

	reqMu    sync.Mutex
	reqN     int
	draining bool
	idle     chan struct{}

	root     context.Context // lifetime of background work (jobs)
	rootStop context.CancelFunc
}

// New builds a server over an engine.
func New(eng Engine, cfg Config) *Server {
	cfg = cfg.withDefaults()
	root, stop := context.WithCancel(context.Background())
	return &Server{
		cfg:      cfg,
		eng:      eng,
		start:    time.Now(),
		sem:      make(chan struct{}, cfg.Workers),
		queued:   make(chan struct{}, cfg.Workers+cfg.Queue),
		done:     map[string]bool{},
		jobs:     map[string]*job{},
		root:     root,
		rootStop: stop,
	}
}

// Stats returns the server's instrumentation (for tests and embedding).
func (s *Server) Stats() *Stats { return &s.stats }

// MarkEvaluated records design-point cache keys as already evaluated, so a
// server warm-started from a saved run accounts requests for restored
// points as cache hits (eval.DB.CandidateKeys supplies the keys).
func (s *Server) MarkEvaluated(keys ...string) {
	s.mu.Lock()
	for _, k := range keys {
		s.done[k] = true
	}
	s.mu.Unlock()
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Log != nil {
		s.cfg.Log(format, args...)
	}
}

// Handler returns the service's route table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /evaluate", s.handleEvaluate)
	mux.HandleFunc("POST /explore", s.handleExploreStart)
	mux.HandleFunc("GET /explore/{id}", s.handleExplorePoll)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// begin admits one HTTP request unless the server is draining.
func (s *Server) begin() bool {
	s.reqMu.Lock()
	defer s.reqMu.Unlock()
	if s.draining {
		return false
	}
	s.reqN++
	return true
}

func (s *Server) end() {
	s.reqMu.Lock()
	s.reqN--
	if s.draining && s.reqN == 0 && s.idle != nil {
		close(s.idle)
		s.idle = nil
	}
	s.reqMu.Unlock()
}

// Draining reports whether the server has stopped accepting work.
func (s *Server) Draining() bool {
	s.reqMu.Lock()
	defer s.reqMu.Unlock()
	return s.draining
}

// Drain moves the server into draining mode — new requests are answered
// with 503 + Retry-After — and waits for every in-flight request to finish
// or ctx to expire. Background /explore jobs are canceled: their clients
// poll, so they observe the failure and resubmit elsewhere. Drain is the
// SIGTERM half of graceful shutdown; pair it with http.Server.Shutdown for
// the connection half.
func (s *Server) Drain(ctx context.Context) error {
	s.reqMu.Lock()
	s.draining = true
	var ch chan struct{}
	if s.reqN > 0 {
		if s.idle == nil {
			s.idle = make(chan struct{})
		}
		ch = s.idle
	}
	s.reqMu.Unlock()
	s.rootStop()
	s.logf("serve: draining (%d requests in flight)", s.InFlight())
	if ch == nil {
		return nil
	}
	select {
	case <-ch:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: drain: %d requests still in flight: %w", s.InFlight(), ctx.Err())
	}
}

// InFlight reports the number of HTTP requests currently being served.
func (s *Server) InFlight() int {
	s.reqMu.Lock()
	defer s.reqMu.Unlock()
	return s.reqN
}

// admit acquires a worker slot within the bounded queue: the caller either
// holds a slot (err == nil; release with s.release), is rejected because
// workers+queue tickets are exhausted (ErrOverloaded), or gave up waiting
// (ctx.Err()).
func (s *Server) admit(ctx context.Context) error {
	select {
	case s.queued <- struct{}{}:
	default:
		return ErrOverloaded
	}
	select {
	case s.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		<-s.queued
		return ctx.Err()
	}
}

func (s *Server) release() {
	<-s.sem
	<-s.queued
}

// evalPoint runs one design point through the full serving path:
// cache-hit accounting, coalescing, admission, and the detached evaluation
// under the server deadline. The returned flags report whether the point
// was already evaluated before this request (cached) and whether this call
// collapsed onto another in-flight evaluation (coalesced).
func (s *Server) evalPoint(ctx context.Context, dp eval.DesignPoint) (c *eval.Candidate, cached, coalesced bool, err error) {
	key := dp.CacheKey()
	s.mu.Lock()
	cached = s.done[key]
	s.mu.Unlock()
	if cached {
		s.stats.CacheHits.Inc()
	}
	c, coalesced, err = s.flight.Do(ctx, key, func() (*eval.Candidate, error) {
		if err := s.admit(ctx); err != nil {
			return nil, err
		}
		defer s.release()
		// Detach from the first caller: its deadline bounds how long it
		// waits, not how long the shared evaluation may run.
		ectx, cancel := context.WithTimeout(context.WithoutCancel(ctx), s.cfg.Timeout)
		defer cancel()
		s.stats.Evaluations.Inc()
		ref, err := s.eng.ReferenceMetrics(ectx)
		if err != nil {
			return nil, err
		}
		cand, err := s.eng.Evaluate(ectx, dp, ref)
		if err != nil {
			return nil, err
		}
		s.mu.Lock()
		s.done[key] = true
		s.mu.Unlock()
		return cand, nil
	})
	if coalesced {
		s.stats.Coalesced.Inc()
	}
	return c, cached, coalesced, err
}

// resolvePoint validates one requested point into a design point.
func resolvePoint(p PointRequest) (eval.DesignPoint, error) {
	choice, ok := eval.ChoiceByKey(p.ISA)
	if !ok {
		return eval.DesignPoint{}, fmt.Errorf("unknown ISA key %q", p.ISA)
	}
	cfg := eval.ReferenceConfig()
	if p.Config != nil {
		cfg = *p.Config
		if err := cfg.Validate(); err != nil {
			return eval.DesignPoint{}, fmt.Errorf("invalid config: %w", err)
		}
	}
	return eval.DesignPoint{ISA: choice, Cfg: cfg}, nil
}

// evalOne produces the wire result for one point, folding every failure
// mode into the result's status/error fields.
func (s *Server) evalOne(ctx context.Context, p PointRequest) PointResult {
	s.stats.Points.Inc()
	res := PointResult{ISA: p.ISA}
	start := time.Now()
	defer func() { res.EvalMS = float64(time.Since(start).Microseconds()) / 1e3 }()
	dp, err := resolvePoint(p)
	if err != nil {
		res.Error, res.Status = err.Error(), http.StatusBadRequest
		return res
	}
	res.Config = dp.Cfg.Name()
	res.CacheKey = dp.CacheKey()
	c, cached, coalesced, err := s.evalPoint(ctx, dp)
	s.stats.Latency.Since(start)
	res.Cached, res.Coalesced = cached, coalesced
	if err != nil {
		res.Status = fault.HTTPStatus(err)
		res.Error = err.Error()
		switch {
		case errors.Is(err, ErrOverloaded):
			res.Status = http.StatusTooManyRequests
			res.RetryAfterS = 1
			s.stats.Rejected.Inc()
		case res.Status == http.StatusGatewayTimeout:
			s.stats.Timeouts.Inc()
		default:
			s.stats.Faults.Inc()
		}
		if d, ok := fault.RetryAfter(err); ok {
			res.RetryAfterS = int(d.Seconds())
		}
		return res
	}
	res.MeanSpeedup = c.MeanSpeedup()
	res.AreaMM2 = c.AreaMM2
	res.PeakW = c.PeakW
	for _, d := range c.Degraded {
		if d {
			res.DegradedRegions++
		}
	}
	return res
}

func (s *Server) handleEvaluate(w http.ResponseWriter, r *http.Request) {
	if !s.serveBegin(w) {
		return
	}
	defer s.end()
	var req EvaluateRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err))
		return
	}
	points := req.Points
	single := len(points) == 0
	if single {
		if req.ISA == "" {
			writeError(w, http.StatusBadRequest, "request names no points: set isa or points")
			return
		}
		points = []PointRequest{{ISA: req.ISA, Config: req.Config}}
	}
	if len(points) > MaxBatch {
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("batch of %d exceeds limit %d; use /explore for sweeps", len(points), MaxBatch))
		return
	}
	ctx := r.Context()
	if req.DeadlineMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.DeadlineMS)*time.Millisecond)
		defer cancel()
	}
	resp := EvaluateResponse{Results: make([]PointResult, len(points))}
	_, errs := par.MapAll(ctx, len(points), 0, func(i int) (struct{}, error) {
		resp.Results[i] = s.evalOne(ctx, points[i])
		return struct{}{}, nil
	})
	// Points the pool skipped because the request deadline already expired
	// get the deadline's status instead of a zero result.
	for i, err := range errs {
		if err != nil && resp.Results[i].ISA == "" {
			resp.Results[i] = PointResult{
				ISA: points[i].ISA, Error: err.Error(), Status: fault.HTTPStatus(err),
			}
		}
	}
	for i := range resp.Results {
		if resp.Results[i].Error != "" {
			resp.Errors++
		}
	}
	status := http.StatusOK
	if single && resp.Results[0].Status != 0 {
		status = resp.Results[0].Status
		if ra := resp.Results[0].RetryAfterS; ra > 0 {
			w.Header().Set("Retry-After", strconv.Itoa(ra))
		}
	}
	writeJSON(w, status, resp)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.stats.Requests.Inc()
	h := HealthResponse{
		Status:  "ok",
		UptimeS: time.Since(s.start).Seconds(),
	}
	if p, ok := s.eng.(persistHealth); ok && p.PersistDegraded() {
		// Degraded is still 200: the service answers evaluations from
		// memory; only durability is impaired. Load balancers keep
		// routing here, operators alert on the status string.
		h.Status = "degraded"
	}
	if s.Draining() {
		h.Status = "draining"
		w.Header().Set("Retry-After", "5")
		writeJSON(w, http.StatusServiceUnavailable, h)
		return
	}
	writeJSON(w, http.StatusOK, h)
}

// serveBegin counts the request in, or answers 503 when draining.
func (s *Server) serveBegin(w http.ResponseWriter) bool {
	s.stats.Requests.Inc()
	if !s.begin() {
		w.Header().Set("Retry-After", "5")
		writeError(w, http.StatusServiceUnavailable, errDraining.Error())
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, ErrorResponse{Error: msg, Status: status})
}

func decodeJSON(r *http.Request, v any) error {
	return json.NewDecoder(r.Body).Decode(v)
}

var _ Engine = (*eval.DB)(nil)

// persistHealth is the side of an Engine that writes profile sets through
// to a durable store (*eval.DB): while its latest write failed, /healthz
// reports "degraded" and /metrics sets compisa_serve_store_degraded.
// Serving never depends on it — a degraded store only means fresh profile
// sets are not being persisted.
type persistHealth interface {
	PersistDegraded() bool
}

var _ persistHealth = (*eval.DB)(nil)
