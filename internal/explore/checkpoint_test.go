// Tests for checkpoint corruption handling: corrupt files are typed
// (ErrCheckpointCorrupt), RecoverCheckpoint quarantines them and starts
// cold, and good checkpoints survive recovery untouched.

package explore

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"compisa/internal/eval"
	"compisa/internal/metrics"
)

// writeCheckpointFile plants raw bytes as a checkpoint.
func writeCheckpointFile(t *testing.T, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "ckpt.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestLoadCheckpointCorruptTyped: truncated JSON, garbage bytes, and
// unusable versions all surface as ErrCheckpointCorrupt, while a missing
// file stays (nil, nil) and plain I/O problems stay untyped.
func TestLoadCheckpointCorruptTyped(t *testing.T) {
	good := &CheckpointState{Version: checkpointVersion}
	goodPath := filepath.Join(t.TempDir(), "good.json")
	if err := SaveCheckpoint(goodPath, good); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(goodPath)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		data []byte
	}{
		{"truncated", data[:len(data)/2]},
		{"garbage", []byte("\x00\xffnot json at all")},
		{"empty", nil},
		{"future-version", []byte(`{"version":99,"profiles":{}}`)},
		// v2 predates the struct-of-arrays profile schema (its ILP and
		// mispredict curves were JSON objects, not arrays) and must be
		// quarantined, not silently misread.
		{"stale-version", []byte(`{"version":2,"profiles":{}}`)},
		// Live metrics only grow: a negative count, sum or bucket in the
		// stats block cannot come from a run.
		{"negative-count", []byte(fmt.Sprintf(`{"version":%d,"profiles":{},"stats":{"compiles":-1}}`, checkpointVersion))},
		{"negative-bucket", []byte(fmt.Sprintf(
			`{"version":%d,"profiles":{},"stats":{"exec_time":{"count":1,"sum_ns":5,"buckets":[2,-1]}}}`, checkpointVersion))},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := writeCheckpointFile(t, tc.data)
			_, err := LoadCheckpoint(path)
			if !errors.Is(err, ErrCheckpointCorrupt) {
				t.Fatalf("LoadCheckpoint(%s) = %v, want ErrCheckpointCorrupt", tc.name, err)
			}
			if st, q, err := RecoverCheckpoint(path); st != nil || q != path+".corrupt" || err != nil {
				t.Fatalf("RecoverCheckpoint(%s) = (%v, %q, %v), want quarantine to %s.corrupt", tc.name, st, q, err, path)
			}
		})
	}

	if st, err := LoadCheckpoint(filepath.Join(t.TempDir(), "absent.json")); st != nil || err != nil {
		t.Fatalf("missing checkpoint: (%v, %v), want (nil, nil)", st, err)
	}
}

// TestRecoverCheckpointQuarantines: recovery from a corrupt checkpoint
// renames it aside to <path>.corrupt (preserving the bytes for post-mortem)
// and returns a cold-start nil state.
func TestRecoverCheckpointQuarantines(t *testing.T) {
	garbage := []byte("{\"version\": 2, \"profiles\": {tru")
	path := writeCheckpointFile(t, garbage)

	st, quarantined, err := RecoverCheckpoint(path)
	if err != nil {
		t.Fatalf("RecoverCheckpoint: %v", err)
	}
	if st != nil {
		t.Fatal("corrupt checkpoint produced a non-nil state")
	}
	if quarantined != path+".corrupt" {
		t.Fatalf("quarantined = %q, want %q", quarantined, path+".corrupt")
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("original path still exists after quarantine: %v", err)
	}
	kept, err := os.ReadFile(quarantined)
	if err != nil {
		t.Fatal(err)
	}
	if string(kept) != string(garbage) {
		t.Fatal("quarantined file does not preserve the corrupt bytes")
	}

	// The quarantined name is out of the way: a fresh save to the original
	// path works and loads cleanly afterwards.
	if err := SaveCheckpoint(path, &CheckpointState{Version: checkpointVersion}); err != nil {
		t.Fatal(err)
	}
	st2, quarantined2, err := RecoverCheckpoint(path)
	if err != nil || quarantined2 != "" {
		t.Fatalf("recover after resave: (%v, %q, %v)", st2, quarantined2, err)
	}
	if st2 == nil || st2.Version != checkpointVersion {
		t.Fatalf("resaved checkpoint did not load: %+v", st2)
	}
}

// TestRecoverCheckpointPassesThrough: a healthy checkpoint and a missing
// one flow through recovery unchanged (no quarantine, no error).
func TestRecoverCheckpointPassesThrough(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ok.json")
	if err := SaveCheckpoint(path, &CheckpointState{Version: checkpointVersion}); err != nil {
		t.Fatal(err)
	}
	st, q, err := RecoverCheckpoint(path)
	if err != nil || q != "" || st == nil {
		t.Fatalf("healthy: (%v, %q, %v)", st, q, err)
	}
	st, q, err = RecoverCheckpoint(filepath.Join(t.TempDir(), "absent.json"))
	if err != nil || q != "" || st != nil {
		t.Fatalf("missing: (%v, %q, %v)", st, q, err)
	}
}

// TestLoadCheckpointIgnoresRetiredStats: a checkpoint written while the
// stats block still carried the template JIT's counters (jit_* keys) keeps
// loading, and its surviving counters restore.
func TestLoadCheckpointIgnoresRetiredStats(t *testing.T) {
	path := writeCheckpointFile(t, []byte(fmt.Sprintf(`{"version":%d,"profiles":{},"stats":{"compiles":3,`+
		`"jit_regions":5,"jit_runs":4,"jit_deopts":1,"jit_bailouts":1,"execs":2}}`, checkpointVersion)))
	st, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	db := NewDB()
	db.Import(st.State)
	if sn := db.StatsSnapshot(); sn.Compiles != 3 || sn.Execs != 2 {
		t.Fatalf("restored stats = %+v, want compiles=3 execs=2", sn)
	}
}

// TestLoadCheckpointWithoutSimStats: checkpoints written before the
// simulation tier carry no sim_hits/sim_misses keys; they load with both
// counters at zero and every other counter intact.
func TestLoadCheckpointWithoutSimStats(t *testing.T) {
	golden, err := os.ReadFile("testdata/checkpoint_stats.golden.json")
	if err != nil {
		t.Fatal(err)
	}
	old := regexp.MustCompile(`"sim_(hits|misses)":\d+,`).ReplaceAll(golden, nil)
	if bytes.Equal(old, golden) {
		t.Fatal("golden checkpoint carries no sim counters to strip")
	}
	load := func(data []byte) eval.StatsSnapshot {
		st, err := LoadCheckpoint(writeCheckpointFile(t, data))
		if err != nil {
			t.Fatal(err)
		}
		db := NewDB()
		db.Import(st.State)
		return db.StatsSnapshot()
	}
	got, want := load(old), load(golden)
	want.SimHits, want.SimMisses = 0, 0
	if !reflect.DeepEqual(got, want) {
		t.Errorf("pre-tier checkpoint restored %+v, want %+v", got, want)
	}
}

// TestSaveCheckpointNoTempDebris: saves leave exactly the checkpoint file —
// the atomicfile temp never lingers, even across repeated saves.
func TestSaveCheckpointNoTempDebris(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ckpt.json")
	for i := 0; i < 3; i++ {
		if err := SaveCheckpoint(path, &CheckpointState{Version: checkpointVersion}); err != nil {
			t.Fatal(err)
		}
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.Contains(e.Name(), ".tmp") {
			t.Fatalf("temp debris left behind: %s", e.Name())
		}
	}
	if len(ents) != 1 {
		t.Fatalf("directory has %d entries, want 1", len(ents))
	}
}

// TestCheckpointRetiredStatsCompat: checkpoints written before the native
// executor and the Facts opt-in were removed still carry jit_* and
// facts_computed counters in their stats. They must load (not be
// quarantined as corrupt), with every remaining counter intact.
func TestCheckpointRetiredStatsCompat(t *testing.T) {
	path := writeCheckpointFile(t, []byte(`{"version":4,"profiles":{},"stats":{
		"compiles":1,"verifies":2,"verify_findings":3,"facts_computed":4,
		"execs":5,"model_evals":6,"profile_hits":7,"profile_misses":8,
		"candidate_hits":9,"candidate_misses":10,"retries":11,"quarantines":12,
		"degraded_regions":13,"persisted":14,"persist_errors":15,
		"jit_regions":16,"jit_runs":17,"jit_deopts":18,"jit_bailouts":19,
		"compile_time":{"count":1,"sum_ns":100,"buckets":[1]},
		"verify_time":{"count":2,"sum_ns":200,"buckets":[0,2]},
		"exec_time":{"count":3,"sum_ns":300,"buckets":[0,0,3]},
		"model_time":{"count":4,"sum_ns":400,"buckets":[0,0,0,4]}}}`))
	st, quarantined, err := RecoverCheckpoint(path)
	if err != nil || quarantined != "" || st == nil {
		t.Fatalf("RecoverCheckpoint = (%v, %q, %v), want a loaded state", st, quarantined, err)
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
	if !reflect.DeepEqual(st.Stats, want) {
		t.Fatalf("loaded stats = %+v\nwant %+v", st.Stats, want)
	}
	db := NewDB()
	db.Import(st.State)
	if got := db.StatsSnapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("restored stats = %+v\nwant %+v", got, want)
	}
}
