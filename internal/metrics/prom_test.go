package metrics

import (
	"strings"
	"testing"
	"time"
)

// TestPromExpositionGolden pins the exact exposition-format output for a
// representative mix of counters, gauges, and histograms: the format is an
// external contract (Prometheus scrapes it), so any drift is a breaking
// change and must show up as a test diff.
func TestPromExpositionGolden(t *testing.T) {
	var h Histogram
	h.Observe(500 * time.Nanosecond)  // below the floor -> bucket 0
	h.Observe(3 * time.Microsecond)   // [2µs,4µs) -> bucket 1
	h.Observe(3500 * time.Nanosecond) // same bucket
	h.Observe(100 * time.Millisecond) // far up the range

	var sb strings.Builder
	p := NewPromWriter(&sb)
	p.Counter("compisa_requests_total", "HTTP requests received.", 42)
	p.Counter("compisa_evals_total", "Evaluations by outcome.", 7, "outcome", "hit")
	p.Gauge("compisa_uptime_seconds", "Seconds since boot.", 1.5)
	p.Histogram("compisa_eval_duration_seconds", "Evaluation latency.", h.Snapshot())
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}

	want := `# HELP compisa_requests_total HTTP requests received.
# TYPE compisa_requests_total counter
compisa_requests_total 42
# HELP compisa_evals_total Evaluations by outcome.
# TYPE compisa_evals_total counter
compisa_evals_total{outcome="hit"} 7
# HELP compisa_uptime_seconds Seconds since boot.
# TYPE compisa_uptime_seconds gauge
compisa_uptime_seconds 1.5
# HELP compisa_eval_duration_seconds Evaluation latency.
# TYPE compisa_eval_duration_seconds histogram
compisa_eval_duration_seconds_bucket{le="2e-06"} 1
compisa_eval_duration_seconds_bucket{le="4e-06"} 3
compisa_eval_duration_seconds_bucket{le="8e-06"} 3
compisa_eval_duration_seconds_bucket{le="1.6e-05"} 3
compisa_eval_duration_seconds_bucket{le="3.2e-05"} 3
compisa_eval_duration_seconds_bucket{le="6.4e-05"} 3
compisa_eval_duration_seconds_bucket{le="0.000128"} 3
compisa_eval_duration_seconds_bucket{le="0.000256"} 3
compisa_eval_duration_seconds_bucket{le="0.000512"} 3
compisa_eval_duration_seconds_bucket{le="0.001024"} 3
compisa_eval_duration_seconds_bucket{le="0.002048"} 3
compisa_eval_duration_seconds_bucket{le="0.004096"} 3
compisa_eval_duration_seconds_bucket{le="0.008192"} 3
compisa_eval_duration_seconds_bucket{le="0.016384"} 3
compisa_eval_duration_seconds_bucket{le="0.032768"} 3
compisa_eval_duration_seconds_bucket{le="0.065536"} 3
compisa_eval_duration_seconds_bucket{le="0.131072"} 4
compisa_eval_duration_seconds_bucket{le="+Inf"} 4
compisa_eval_duration_seconds_sum 0.100007
compisa_eval_duration_seconds_count 4
`
	if got := sb.String(); got != want {
		t.Errorf("exposition drifted:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestPromHistogramWithLabels: the le label composes with caller labels and
// labels are key-sorted regardless of argument order.
func TestPromHistogramWithLabels(t *testing.T) {
	var h Histogram
	h.Observe(3 * time.Microsecond)
	var sb strings.Builder
	p := NewPromWriter(&sb)
	p.Histogram("d_seconds", "x", h.Snapshot(), "stage", "model")
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	for _, want := range []string{
		`d_seconds_bucket{stage="model",le="4e-06"} 1`,
		`d_seconds_bucket{stage="model",le="+Inf"} 1`,
		`d_seconds_sum{stage="model"} 3e-06`,
		`d_seconds_count{stage="model"} 1`,
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}

	var sb2 strings.Builder
	p2 := NewPromWriter(&sb2)
	p2.Counter("c_total", "x", 1, "z", "1", "a", "2")
	if want := `c_total{a="2",z="1"} 1`; !strings.Contains(sb2.String(), want) {
		t.Errorf("labels not key-sorted: %s", sb2.String())
	}
}

// TestPromFamilyHeaderOnce: a family emitted as several labeled series
// carries a single HELP/TYPE header — repeating it between samples is
// invalid exposition format.
func TestPromFamilyHeaderOnce(t *testing.T) {
	var sb strings.Builder
	p := NewPromWriter(&sb)
	p.Counter("cache_total", "Cache outcomes.", 3, "outcome", "hit")
	p.Counter("cache_total", "Cache outcomes.", 1, "outcome", "miss")
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	if n := strings.Count(got, "# HELP cache_total"); n != 1 {
		t.Errorf("HELP emitted %d times, want 1:\n%s", n, got)
	}
	if n := strings.Count(got, "# TYPE cache_total"); n != 1 {
		t.Errorf("TYPE emitted %d times, want 1:\n%s", n, got)
	}
	for _, want := range []string{`cache_total{outcome="hit"} 3`, `cache_total{outcome="miss"} 1`} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

// TestPromFamilyContiguous: a sample for a family that another family has
// already followed is invalid exposition; it sets the sticky error and
// writes nothing more.
func TestPromFamilyContiguous(t *testing.T) {
	var sb strings.Builder
	p := NewPromWriter(&sb)
	p.Counter("a_total", "A.", 1, "k", "x")
	p.Counter("b_total", "B.", 2)
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	before := sb.String()
	p.Counter("a_total", "A.", 3, "k", "y")
	p.Counter("c_total", "C.", 4)
	if p.Err() == nil {
		t.Fatal("resumed family a_total: Err() = nil")
	}
	if sb.String() != before {
		t.Errorf("wrote after the error:\n%s", strings.TrimPrefix(sb.String(), before))
	}
}
