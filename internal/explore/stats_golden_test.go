package explore

import (
	"hash/fnv"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"compisa/internal/metrics"
	"compisa/internal/store"
)

// fillStats gives every Counter and Histogram field of s a value derived
// from the field's name alone, so the fixture does not depend on field
// order.
func fillStats(s *Stats) {
	rv := reflect.ValueOf(s).Elem()
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

// TestStatsOutputsGolden pins the two persistent renderings of a fixed
// Stats: the run record RunDurable saves to the store (its stats block must
// keep decoding across releases; see TestLoadCheckpointWithoutSimStats) and
// the -stats text layout.
func TestStatsOutputsGolden(t *testing.T) {
	db := NewDB()
	fillStats(&db.Stats)

	dir := filepath.Join(t.TempDir(), "store")
	if err := RunDurable(db, dir, func(*Durable) error { return nil }); err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var got []byte
	if _, err := st.Range(func(key string, val []byte) error {
		if key == runKey {
			got = val
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ file, got string }{
		{"testdata/run_stats.golden.json", string(got)},
		{"testdata/stats_format.golden", db.StatsSnapshot().Format()},
	} {
		want, err := os.ReadFile(tc.file)
		if err != nil {
			t.Fatal(err)
		}
		if tc.got != string(want) {
			t.Errorf("output drifted from %s:\n--- got ---\n%s", tc.file, tc.got)
		}
	}
}
