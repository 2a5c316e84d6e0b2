package eval

import (
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"compisa/internal/metrics"
)

// TestStatsSnapshotFieldsRoundTrip: every StatsSnapshot field, set alone,
// makes the snapshot non-empty and survives both the run record's JSON
// encoding and Snapshot → Merge into fresh Stats → Snapshot. A field that
// IsZero, Merge or Snapshot forgets is silently dropped from saved runs.
// The fields are walked by reflection, so one added later is covered
// without editing the test.
func TestStatsSnapshotFieldsRoundTrip(t *testing.T) {
	if !(StatsSnapshot{}).IsZero() {
		t.Error("empty snapshot: IsZero() = false")
	}
	var h metrics.Histogram
	h.Observe(3 * time.Millisecond)
	typ := reflect.TypeOf(StatsSnapshot{})
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		var sn StatsSnapshot
		f := reflect.ValueOf(&sn).Elem().Field(i)
		switch f.Interface().(type) {
		case int64:
			f.SetInt(7)
		case metrics.HistogramSnapshot:
			f.Set(reflect.ValueOf(h.Snapshot()))
		default:
			t.Fatalf("StatsSnapshot.%s: unhandled type %s", name, f.Type())
		}

		if sn.IsZero() {
			t.Errorf("%s: IsZero() = true with the field set", name)
		}
		var s Stats
		s.Merge(sn)
		if got := s.Snapshot(); !reflect.DeepEqual(got, sn) {
			t.Errorf("%s: Merge/Snapshot round trip = %+v, want %+v", name, got, sn)
		}
		data, err := json.Marshal(sn)
		if err != nil {
			t.Fatal(err)
		}
		var back StatsSnapshot
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(back, sn) {
			t.Errorf("%s: JSON round trip = %+v, want %+v", name, back, sn)
		}
	}
}
