// Tests for the run record's format: damaged records are skipped and
// counted, a healthy one restores its stats, and the stats block decodes
// across counters added or retired since the record was written.

package explore

import (
	"bytes"
	"os"
	"reflect"
	"regexp"
	"testing"

	"compisa/internal/metrics"
)

// TestLoadCheckpointCorruptTyped: a run record that is truncated, garbage,
// empty, framed with a version other than the store's, or whose stats hold
// a negative count, sum or bucket is skipped, counted and logged, restores
// nothing, and is replaced by the exit save.
func TestLoadCheckpointCorruptTyped(t *testing.T) {
	good := frame(1, runKey, []byte(`{"stats":{"compiles":3}}`))
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"truncated", good[:len(good)/2]},
		{"garbage", []byte("\x00\xffnot a record at all")},
		{"empty", nil},
		{"future-version", frame(2, runKey, []byte(`{"stats":{"compiles":3}}`))},
		{"stale-version", frame(0, runKey, []byte(`{"stats":{"compiles":3}}`))},
		// Live metrics only grow: a negative count, sum or bucket in the
		// stats block cannot come from a run.
		{"negative-count", frame(1, runKey, []byte(`{"stats":{"compiles":-1}}`))},
		{"negative-bucket", frame(1, runKey, []byte(`{"stats":{"exec_time":{"count":1,"sum_ns":5,"buckets":[2,-1]}}}`))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var log logLines
			dir := storeDir(t)
			plantRun(t, dir, tc.data)
			db := loggedDB(1, &log)
			if err := RunDurable(db, dir, func(*Durable) error {
				if !db.StatsSnapshot().IsZero() {
					t.Errorf("the run record restored stats %+v", db.StatsSnapshot())
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if !log.has("[reloaded 0 profile sets from store "+dir+" (1 skipped)]") || log.count("skipped ") != 1 {
				t.Errorf("the run record was not skipped, counted and logged: %q", log.lines)
			}
			if got, err := os.ReadFile(runFile(dir)); err != nil || bytes.Equal(got, tc.data) {
				t.Errorf("the exit save did not replace the run record: %v", err)
			}
		})
	}
}

// TestRecoverCheckpointPassesThrough: a healthy run record restores its
// stats, and a directory without one opens cold; neither skips a record or
// fails.
func TestRecoverCheckpointPassesThrough(t *testing.T) {
	var log logLines
	dir := storeDir(t)
	plantRun(t, dir, frame(1, runKey, []byte(`{"stats":{"compiles":3}}`)))
	db := loggedDB(1, &log)
	if err := RunDurable(db, dir, func(*Durable) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if got := db.StatsSnapshot().Compiles; got != 3 || !log.has("[resumed from store "+dir+": 0 design points, 0 searches]") {
		t.Errorf("healthy: restored %d compiles, log %q", got, log.lines)
	}

	log = logLines{}
	db = loggedDB(1, &log)
	if err := RunDurable(db, storeDir(t), func(*Durable) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if !db.StatsSnapshot().IsZero() || log.has("skipped") || log.has("[resumed") {
		t.Errorf("missing: stats %+v, log %q", db.StatsSnapshot(), log.lines)
	}
}

// TestLoadCheckpointWithoutSimStats: a run record written before a counter
// existed (here the simulation tier's sim_hits/sim_misses) restores with
// that counter at zero and every other counter intact.
func TestLoadCheckpointWithoutSimStats(t *testing.T) {
	golden, err := os.ReadFile("testdata/run_stats.golden.json")
	if err != nil {
		t.Fatal(err)
	}
	old := regexp.MustCompile(`"sim_(hits|misses)":\d+,`).ReplaceAll(golden, nil)
	if bytes.Equal(old, golden) {
		t.Fatal("golden run record carries no sim counters to strip")
	}
	load := func(data []byte) StatsSnapshot {
		var log logLines
		dir := storeDir(t)
		plantRun(t, dir, frame(1, runKey, data))
		db := loggedDB(1, &log)
		if err := RunDurable(db, dir, func(*Durable) error { return nil }); err != nil {
			t.Fatal(err)
		}
		if log.has("skipped") {
			t.Fatalf("run record skipped: %q", log.lines)
		}
		return db.StatsSnapshot()
	}
	got, want := load(old), load(golden)
	want.SimHits, want.SimMisses = 0, 0
	if !reflect.DeepEqual(got, want) {
		t.Errorf("run record without sim counters restored %+v, want %+v", got, want)
	}
}

// TestCheckpointRetiredStatsCompat: a run record whose stats carry counters
// this binary no longer has (the retired jit_* and facts_computed keys)
// loads, not skipped as damaged, with every remaining counter intact.
func TestCheckpointRetiredStatsCompat(t *testing.T) {
	rec, err := decodeRunRecord([]byte(`{"stats":{
		"compiles":1,"verifies":2,"verify_findings":3,"facts_computed":4,
		"execs":5,"model_evals":6,"profile_hits":7,"profile_misses":8,
		"candidate_hits":9,"candidate_misses":10,"retries":11,"quarantines":12,
		"degraded_regions":13,"persisted":14,"persist_errors":15,
		"jit_regions":16,"jit_runs":17,"jit_deopts":18,"jit_bailouts":19,
		"compile_time":{"count":1,"sum_ns":100,"buckets":[1]},
		"verify_time":{"count":2,"sum_ns":200,"buckets":[0,2]},
		"exec_time":{"count":3,"sum_ns":300,"buckets":[0,0,3]},
		"model_time":{"count":4,"sum_ns":400,"buckets":[0,0,0,4]}}}`))
	if err != nil {
		t.Fatal(err)
	}
	want := StatsSnapshot{
		Compiles: 1, Verifies: 2, VerifyFindings: 3, Execs: 5, ModelEvals: 6,
		ProfileHits: 7, ProfileMisses: 8, CandidateHits: 9, CandidateMisses: 10,
		Retries: 11, Quarantines: 12, DegradedRegions: 13, Persisted: 14, PersistErrors: 15,
		CompileTime: metrics.HistogramSnapshot{Count: 1, SumNS: 100, Buckets: []int64{1}},
		VerifyTime:  metrics.HistogramSnapshot{Count: 2, SumNS: 200, Buckets: []int64{0, 2}},
		ExecTime:    metrics.HistogramSnapshot{Count: 3, SumNS: 300, Buckets: []int64{0, 0, 3}},
		ModelTime:   metrics.HistogramSnapshot{Count: 4, SumNS: 400, Buckets: []int64{0, 0, 0, 4}},
	}
	if !reflect.DeepEqual(rec.Stats, want) {
		t.Fatalf("decoded stats = %+v\nwant %+v", rec.Stats, want)
	}
	db := NewDB()
	db.Stats.Merge(rec.Stats)
	if got := db.StatsSnapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("restored stats = %+v\nwant %+v", got, want)
	}
}
