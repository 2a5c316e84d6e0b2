package serve

import (
	"hash/fnv"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"

	"compisa/internal/eval"
	"compisa/internal/metrics"
)

// fillStats gives every Counter and Histogram field of the struct v points
// to a value derived from the field's name alone, so the fixture does not
// depend on field order.
func fillStats(v any) {
	rv := reflect.ValueOf(v).Elem()
	for i := 0; i < rv.NumField(); i++ {
		h := fnv.New32a()
		h.Write([]byte(rv.Type().Field(i).Name))
		n := int64(h.Sum32() % 1000)
		switch f := rv.Field(i).Addr().Interface().(type) {
		case *metrics.Counter:
			f.Add(n + 1)
		case *metrics.Histogram:
			f.Observe(time.Duration(n+1) * time.Microsecond)
			f.Observe(time.Duration(n%7+1) * time.Millisecond)
		}
	}
}

// uptimeSample matches the one sample whose value depends on the clock.
var uptimeSample = regexp.MustCompile(`(?m)^(compisa_serve_uptime_seconds) .*$`)

// TestMetricsGolden pins the whole /metrics exposition, byte for byte, with
// every eval and serve metric set to a fixed value: family names,
// labels, help text, sample order and values are an external contract that
// dashboards and alerts scrape.
func TestMetricsGolden(t *testing.T) {
	es := &eval.Stats{}
	s := New(&fakeEngine{}, Config{Workers: 1, EvalStats: es})
	for _, v := range []any{es, s.Stats()} {
		fillStats(v)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	got := uptimeSample.ReplaceAllString(rec.Body.String(), "$1 <uptime>")

	want, err := os.ReadFile("testdata/metrics.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("/metrics drifted from testdata/metrics.golden:\n--- got ---\n%s", got)
	}
}
