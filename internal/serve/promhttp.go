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

	pw.Struct(&s.stats)
	if p, ok := s.eng.(persistHealth); ok {
		degraded := 0.0
		if p.PersistDegraded() {
			degraded = 1
		}
		pw.Gauge("compisa_serve_store_degraded",
			"1 while the latest profile-set write to the store failed (serving memory-only).", degraded)
	}
	if es := s.cfg.EvalStats; es != nil {
		pw.Struct(es)
	}
	if err := pw.Err(); err != nil {
		s.logf("serve: metrics write: %v", err)
	}
}
