package metrics

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

type tableStats struct {
	Hits   Counter   `metric:"t_cache_total" labels:"outcome=hit" help:"Cache outcomes."`
	Misses Counter   `metric:"t_cache_total" labels:"outcome=miss" help:"Cache outcomes."`
	Time   Histogram `metric:"t_seconds" labels:"stage=b,kind=a" help:"Timings."`
	Name   string    // not a metric: ignored by every walk
}

// tableSnap pairs with tableStats by name, not by position.
type tableSnap struct {
	Time   HistogramSnapshot
	Misses int64
	Hits   int64
}

// TestTableSnapshotMerge: Snapshot and Merge pair live and snapshot fields
// by name, and PromWriter.Struct emits the declared families.
func TestTableSnapshotMerge(t *testing.T) {
	var s tableStats
	s.Hits.Add(3)
	s.Misses.Inc()
	s.Time.Observe(3 * time.Microsecond)
	sn := Snapshot[tableSnap](&s)
	want := tableSnap{Hits: 3, Misses: 1, Time: s.Time.Snapshot()}
	if !reflect.DeepEqual(sn, want) {
		t.Fatalf("Snapshot = %+v, want %+v", sn, want)
	}
	var back tableStats
	Merge(&back, sn)
	if got := Snapshot[tableSnap](&back); !reflect.DeepEqual(got, want) {
		t.Fatalf("Merge round trip = %+v, want %+v", got, want)
	}

	var sb strings.Builder
	p := NewPromWriter(&sb)
	p.Struct(&s)
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	wantOut := `# HELP t_cache_total Cache outcomes.
# TYPE t_cache_total counter
t_cache_total{outcome="hit"} 3
t_cache_total{outcome="miss"} 1
# HELP t_seconds Timings.
# TYPE t_seconds histogram
t_seconds_bucket{kind="a",stage="b",le="2e-06"} 0
t_seconds_bucket{kind="a",stage="b",le="4e-06"} 1
t_seconds_bucket{kind="a",stage="b",le="+Inf"} 1
t_seconds_sum{kind="a",stage="b"} 3e-06
t_seconds_count{kind="a",stage="b"} 1
`
	if got := sb.String(); got != wantOut {
		t.Errorf("Struct output:\n%s\nwant:\n%s", got, wantOut)
	}
}

// TestTableRejectsMalformed: every declaration bug panics on first use,
// so a test that walks the struct fails instead of a metric going missing.
func TestTableRejectsMalformed(t *testing.T) {
	type untagged struct {
		Hits Counter `metric:"x_total" help:"x"`
		Lost Histogram
	}
	type noHelp struct {
		Hits Counter `metric:"x_total"`
	}
	type pair struct {
		Hits Counter `metric:"x_total" help:"x"`
	}
	cases := map[string]func(){
		"untagged field":    func() { NewPromWriter(&strings.Builder{}).Struct(&untagged{}) },
		"missing help":      func() { NewPromWriter(&strings.Builder{}).Struct(&noHelp{}) },
		"no snapshot field": func() { Snapshot[struct{ Misses int64 }](&pair{}) },
		"wrong field type":  func() { Snapshot[struct{ Hits HistogramSnapshot }](&pair{}) },
		"no merge field":    func() { Merge(&pair{}, struct{ Misses int64 }{}) },
	}
	for name, fn := range cases {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("no panic")
				}
			}()
			fn()
		})
	}
}

// TestCheckSnapshot: any negative count, sum or bucket is reported.
func TestCheckSnapshot(t *testing.T) {
	if err := CheckSnapshot(tableSnap{Hits: 1, Time: HistogramSnapshot{Count: 1, SumNS: 5, Buckets: []int64{1}}}); err != nil {
		t.Fatalf("valid snapshot: %v", err)
	}
	for _, bad := range []tableSnap{
		{Hits: -1},
		{Time: HistogramSnapshot{Count: -1}},
		{Time: HistogramSnapshot{SumNS: -1}},
		{Time: HistogramSnapshot{Count: 1, Buckets: []int64{2, -1}}},
	} {
		if err := CheckSnapshot(bad); err == nil {
			t.Errorf("CheckSnapshot(%+v) = nil, want an error", bad)
		}
	}
}
