package serve

import (
	"net/http"
	"time"

	"compisa/internal/metrics"
)

// handleMetrics renders the server's and (when wired) the evaluation
// pipeline's instrumentation in the Prometheus text exposition format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.stats.Requests.Inc()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	pw := metrics.NewPromWriter(w)

	pw.Gauge("compisa_serve_uptime_seconds", "Seconds since the server started.",
		time.Since(s.start).Seconds())
	pw.Gauge("compisa_serve_inflight_requests", "HTTP requests currently being served.",
		float64(s.InFlight()))
	draining := 0.0
	if s.Draining() {
		draining = 1
	}
	pw.Gauge("compisa_serve_draining", "1 while the server is draining.", draining)

	pw.Counter("compisa_serve_requests_total", "HTTP requests accepted.", s.stats.Requests.Load())
	pw.Counter("compisa_serve_points_total", "Design points requested.", s.stats.Points.Load())
	pw.Counter("compisa_serve_evaluations_total", "Evaluations started (coalescing leaders).",
		s.stats.Evaluations.Load())
	pw.Counter("compisa_serve_coalesced_total", "Points that joined an in-flight evaluation.",
		s.stats.Coalesced.Load())
	pw.Counter("compisa_serve_cache_hits_total", "Points already evaluated by an earlier request.",
		s.stats.CacheHits.Load())
	pw.Counter("compisa_serve_rejected_total", "Admission rejections (HTTP 429).", s.stats.Rejected.Load())
	pw.Counter("compisa_serve_timeouts_total", "Caller deadlines expired (HTTP 504).", s.stats.Timeouts.Load())
	pw.Counter("compisa_serve_faults_total", "Evaluation errors surfaced to clients.", s.stats.Faults.Load())
	pw.Histogram("compisa_serve_point_duration_seconds", "Per-point serving latency.",
		s.stats.Latency.Snapshot())

	if b := s.cfg.Store; b != nil {
		degraded := 0.0
		if b.Degraded() {
			degraded = 1
		}
		pw.Gauge("compisa_serve_store_degraded",
			"1 while the store circuit is not closed (serving memory-only).", degraded)
		bs := b.Stats()
		pw.Counter("compisa_serve_store_trips_total", "Store circuit open transitions.", bs.Trips.Load())
		pw.Counter("compisa_serve_store_skipped_writes_total", "Writes dropped while the circuit was open.",
			bs.Skipped.Load())
		pw.Counter("compisa_serve_store_probes_total", "Half-open probe writes attempted.", bs.Probes.Load())
		pw.Counter("compisa_serve_store_failures_total", "Store writes that failed.", bs.Failures.Load())
	}
	if es := s.cfg.EvalStats; es != nil {
		pw.Counter("compisa_eval_stage_total", "Pipeline stage executions.", es.Compiles.Load(), "stage", "compile")
		pw.Counter("compisa_eval_stage_total", "Pipeline stage executions.", es.Verifies.Load(), "stage", "verify")
		pw.Counter("compisa_eval_stage_total", "Pipeline stage executions.", es.Execs.Load(), "stage", "exec")
		pw.Counter("compisa_eval_stage_total", "Pipeline stage executions.", es.ModelEvals.Load(), "stage", "model")
		pw.Counter("compisa_eval_cache_total", "Cache tier outcomes.", es.ProfileHits.Load(), "tier", "profile", "outcome", "hit")
		pw.Counter("compisa_eval_cache_total", "Cache tier outcomes.", es.ProfileMisses.Load(), "tier", "profile", "outcome", "miss")
		pw.Counter("compisa_eval_cache_total", "Cache tier outcomes.", es.CandidateHits.Load(), "tier", "candidate", "outcome", "hit")
		pw.Counter("compisa_eval_cache_total", "Cache tier outcomes.", es.CandidateMisses.Load(), "tier", "candidate", "outcome", "miss")
		pw.Counter("compisa_eval_verify_findings_total", "Conformance violations found by the verify stage.",
			es.VerifyFindings.Load())
		pw.Counter("compisa_eval_retries_total", "Faulted stages retried.", es.Retries.Load())
		pw.Counter("compisa_eval_quarantines_total", "(region, ISA) pairs quarantined.", es.Quarantines.Load())
		pw.Counter("compisa_eval_degraded_regions_total", "Regions scored at the Policy penalties.",
			es.DegradedRegions.Load())
		pw.Counter("compisa_eval_persisted_total", "Candidates written through to the durable store.",
			es.Persisted.Load())
		pw.Counter("compisa_eval_persist_errors_total", "Candidate write-throughs that failed.",
			es.PersistErrors.Load())
		pw.Histogram("compisa_eval_stage_duration_seconds", "Stage timings.",
			es.CompileTime.Snapshot(), "stage", "compile")
		pw.Histogram("compisa_eval_stage_duration_seconds", "Stage timings.",
			es.VerifyTime.Snapshot(), "stage", "verify")
		pw.Histogram("compisa_eval_stage_duration_seconds", "Stage timings.",
			es.ExecTime.Snapshot(), "stage", "exec")
		pw.Histogram("compisa_eval_stage_duration_seconds", "Stage timings.",
			es.ModelTime.Snapshot(), "stage", "model")
	}
	if err := pw.Err(); err != nil {
		s.logf("serve: metrics write: %v", err)
	}
}
