package serve

import "compisa/internal/cpu"

// PointRequest names one design point: an ISA choice by its canonical key
// (eval.ChoiceKeys enumerates them) and an optional core configuration;
// nil Config selects the paper's reference core.
type PointRequest struct {
	ISA    string          `json:"isa"`
	Config *cpu.CoreConfig `json:"config,omitempty"`
}

// EvaluateRequest is the body of POST /evaluate. Either Points carries a
// batch, or the single-point fields (ISA, Config) name one design point —
// single-point requests also propagate the point's status onto the HTTP
// response. DeadlineMS bounds how long this caller waits; it never cuts
// short the shared evaluation other callers may be riding.
type EvaluateRequest struct {
	Points     []PointRequest  `json:"points,omitempty"`
	ISA        string          `json:"isa,omitempty"`
	Config     *cpu.CoreConfig `json:"config,omitempty"`
	DeadlineMS int64           `json:"deadline_ms,omitempty"`
}

// PointResult is the outcome for one requested point. Exactly one of the
// score fields or Error is meaningful: a failed point carries Error plus
// the HTTP status its failure maps to (and a Retry-After hint when the
// failure is transient).
type PointResult struct {
	ISA      string `json:"isa"`
	Config   string `json:"config,omitempty"`
	CacheKey string `json:"cache_key,omitempty"`

	MeanSpeedup     float64 `json:"mean_speedup,omitempty"`
	AreaMM2         float64 `json:"area_mm2,omitempty"`
	PeakW           float64 `json:"peak_w,omitempty"`
	DegradedRegions int     `json:"degraded_regions,omitempty"`

	Cached    bool    `json:"cached"`
	Coalesced bool    `json:"coalesced"`
	EvalMS    float64 `json:"eval_ms"`

	Error       string `json:"error,omitempty"`
	Status      int    `json:"status,omitempty"`
	RetryAfterS int    `json:"retry_after_s,omitempty"`
}

// EvaluateResponse is the body answering POST /evaluate.
type EvaluateResponse struct {
	Results []PointResult `json:"results"`
	Errors  int           `json:"errors,omitempty"`
}

// ExploreRequest is the body of POST /explore: an asynchronous sweep over
// the cross product of ISAs × Configs. Empty ISAs sweeps every enumerable
// choice; empty Configs uses the reference core.
type ExploreRequest struct {
	ISAs    []string         `json:"isas,omitempty"`
	Configs []cpu.CoreConfig `json:"configs,omitempty"`
}

// JobResponse reports an /explore job. Results is populated once Status is
// "done"; a canceled or failed job reports Status "failed" with Error set.
type JobResponse struct {
	ID        string        `json:"id"`
	Status    string        `json:"status"` // running | done | failed
	Total     int           `json:"total"`
	Completed int           `json:"completed"`
	Errors    int           `json:"errors,omitempty"`
	Error     string        `json:"error,omitempty"`
	Results   []PointResult `json:"results,omitempty"`
}

// HealthResponse is the body answering GET /healthz. Status "degraded"
// (the latest profile-set write to the store failed: evaluations serve from
// memory, durability is impaired) still answers 200 — only "draining" is a
// 503.
type HealthResponse struct {
	Status  string  `json:"status"` // ok | degraded | draining
	UptimeS float64 `json:"uptime_s"`
}

// ErrorResponse is the uniform error body for request-level failures.
type ErrorResponse struct {
	Error  string `json:"error"`
	Status int    `json:"status"`
}
