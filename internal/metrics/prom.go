package metrics

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// PromWriter emits metrics in the Prometheus text exposition format
// (version 0.0.4), the lingua franca of scrape-based monitoring. It is
// deliberately minimal — counters, gauges, and histograms over the
// package's own snapshot types — so the serving layer can expose the
// pipeline's instrumentation without importing a client library.
//
// Output is deterministic for a given call sequence: metrics appear in
// emission order, and label pairs are sorted by key. The first write error
// sticks and short-circuits subsequent emissions; check Err once at the end.
type PromWriter struct {
	w      io.Writer
	err    error
	family string          // family of the latest sample
	headed map[string]bool // families whose HELP/TYPE header is already out
}

// NewPromWriter wraps w for exposition-format output.
func NewPromWriter(w io.Writer) *PromWriter {
	return &PromWriter{w: w, headed: map[string]bool{}}
}

// Err returns the first error encountered while writing.
func (p *PromWriter) Err() error { return p.err }

// header emits the HELP/TYPE preamble once per metric family: the format
// allows a family's samples to differ only in labels, never to repeat the
// header between them or to interleave them with another family's.
func (p *PromWriter) header(name, help, kind string) {
	if name == p.family {
		return
	}
	if p.headed[name] && p.err == nil {
		p.err = fmt.Errorf("metrics: family %s resumed after %s; a family's samples must be contiguous", name, p.family)
	}
	p.family = name
	p.headed[name] = true
	p.printf("# HELP %s %s\n# TYPE %s %s\n", name, help, name, kind)
}

func (p *PromWriter) printf(format string, args ...any) {
	if p.err != nil {
		return
	}
	_, p.err = fmt.Fprintf(p.w, format, args...)
}

// formatLabels renders {k="v",...} with keys sorted, or "" when empty.
// labels are alternating key, value pairs.
func formatLabels(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	type kv struct{ k, v string }
	pairs := make([]kv, 0, len(labels)/2)
	for i := 0; i+1 < len(labels); i += 2 {
		pairs = append(pairs, kv{labels[i], labels[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var sb strings.Builder
	sb.WriteByte('{')
	for i, kv := range pairs {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%s=%q", kv.k, kv.v)
	}
	sb.WriteByte('}')
	return sb.String()
}

// formatFloat renders a sample value the way Prometheus expects: shortest
// representation that round-trips, "+Inf"/"-Inf" spelled out.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Counter emits one cumulative counter sample. By convention the name
// should end in "_total". labels are alternating key, value pairs.
func (p *PromWriter) Counter(name, help string, v int64, labels ...string) {
	p.header(name, help, "counter")
	p.printf("%s%s %d\n", name, formatLabels(labels), v)
}

// Gauge emits one gauge sample.
func (p *PromWriter) Gauge(name, help string, v float64, labels ...string) {
	p.header(name, help, "gauge")
	p.printf("%s%s %s\n", name, formatLabels(labels), formatFloat(v))
}

// Histogram emits a duration histogram snapshot as a Prometheus histogram
// in seconds: cumulative `_bucket{le="..."}` samples over the package's
// exponential bucket bounds (trailing empty buckets collapse into +Inf),
// plus `_sum` and `_count`.
func (p *PromWriter) Histogram(name, help string, s HistogramSnapshot, labels ...string) {
	p.header(name, help, "histogram")
	base := formatLabels(labels)
	// Re-open the label set to append le; "{a="b"}" -> "{a="b",le="x"}".
	open := func(le string) string {
		if base == "" {
			return fmt.Sprintf("{le=%q}", le)
		}
		return base[:len(base)-1] + fmt.Sprintf(",le=%q}", le)
	}
	var cum int64
	for i, n := range s.Buckets {
		cum += n
		p.printf("%s_bucket%s %d\n", name, open(formatFloat(BucketUpper(i).Seconds())), cum)
	}
	p.printf("%s_bucket%s %d\n", name, open("+Inf"), s.Count)
	p.printf("%s_sum%s %s\n", name, base, formatFloat(float64(s.SumNS)/1e9))
	p.printf("%s_count%s %d\n", name, base, s.Count)
}
