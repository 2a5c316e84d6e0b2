package eval

import (
	"context"
	"errors"
	"path/filepath"
	"testing"

	"compisa/internal/fault"
	"compisa/internal/store"
)

// recordingPersister captures write-throughs and optionally fails them.
type recordingPersister struct {
	keys []string
	err  error
}

func (p *recordingPersister) Put(key string, val []byte) error {
	if p.err != nil {
		return p.err
	}
	p.keys = append(p.keys, key)
	return nil
}

// TestPersistWriteThrough: each completed profile set reaches the Persister
// exactly once — evaluations of other configurations, cache hits and
// repeated sweeps never re-persist, and candidates are never persisted.
func TestPersistWriteThrough(t *testing.T) {
	db := smallDB(2, nil)
	p := &recordingPersister{}
	db.Persist = p
	ctx := context.Background()
	ref, err := db.ReferenceMetrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	dp := DesignPoint{ISA: injectable(t), Cfg: ReferenceConfig()}
	other := dp
	other.Cfg.LSQ /= 2
	for _, dp := range []DesignPoint{dp, dp, other} {
		if _, err := db.Evaluate(ctx, dp, ref); err != nil {
			t.Fatal(err)
		}
	}
	// Exactly two persists: the reference's profile set (computed by
	// ReferenceMetrics) and dp's; every later evaluation reuses dp's set.
	want := []string{X8664Choice().Key(), dp.ISA.Key()}
	if len(p.keys) != 2 || p.keys[0] != want[0] || p.keys[1] != want[1] {
		t.Fatalf("persisted keys = %v, want %v", p.keys, want)
	}
	if got := db.Stats.Persisted.Load(); got != 2 {
		t.Fatalf("Stats.Persisted = %d, want 2", got)
	}
}

// TestPersistFailureNeverFailsEvaluation: a dead Persister degrades
// durability, not correctness — evaluations succeed, the error counter
// moves, the result is still cached in memory.
func TestPersistFailureNeverFailsEvaluation(t *testing.T) {
	db := smallDB(2, nil)
	db.Persist = &recordingPersister{err: errors.New("disk gone")}
	ctx := context.Background()
	ref, err := db.ReferenceMetrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	dp := DesignPoint{ISA: injectable(t), Cfg: ReferenceConfig()}
	c, err := db.Evaluate(ctx, dp, ref)
	if err != nil {
		t.Fatalf("evaluation must survive persist failure: %v", err)
	}
	if c == nil {
		t.Fatal("nil candidate")
	}
	if got := db.Stats.PersistErrors.Load(); got == 0 {
		t.Fatal("Stats.PersistErrors did not move")
	}
	if db.Stats.Persisted.Load() != 0 {
		t.Fatal("Stats.Persisted moved despite failures")
	}
	c2, err := db.Evaluate(ctx, dp, ref)
	if err != nil || c2 != c {
		t.Fatalf("in-memory cache must still serve the candidate: %v", err)
	}
}

// TestProfileStoreRoundtrip: profile against a real store, then warm-start
// a fresh DB from the log — the restored profile sets and quarantine
// entries serve a configuration never evaluated before with no compile and
// no simulation, only the model stage.
func TestProfileStoreRoundtrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "profiles.log")
	st, err := store.Open(path, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Seed 1 quarantines one of the injectable choice's two regions.
	in := injector(t, fault.Config{Seed: 1, Rate: 0.5, Kinds: []fault.Kind{fault.KindCompile}})
	db := smallDB(2, in)
	db.Persist = st
	ctx := context.Background()
	ref, err := db.ReferenceMetrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	dp := DesignPoint{ISA: injectable(t), Cfg: ReferenceConfig()}
	c1, err := db.Evaluate(ctx, dp, ref)
	if err != nil {
		t.Fatal(err)
	}
	if q := len(db.Coverage().Quarantined); q != 1 {
		t.Fatalf("%d quarantined pairs, want 1", q)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := store.Open(path, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.Len() != 2 {
		t.Fatalf("store holds %d records, want 2 profile sets", st2.Len())
	}
	db2 := smallDB(2, nil)
	if err := st2.Range(func(_ string, val []byte) error { return db2.ImportRecord(val) }); err != nil {
		t.Fatal(err)
	}
	if got, want := db2.Coverage(), db.Coverage(); got.String() != want.String() {
		t.Fatalf("restored coverage %s, want %s", got, want)
	}
	ref2, err := db2.ReferenceMetrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := db2.Evaluate(ctx, dp, ref2)
	if err != nil {
		t.Fatal(err)
	}
	other := dp
	other.Cfg.LSQ /= 2
	if _, err := db2.Evaluate(ctx, other, ref2); err != nil {
		t.Fatal(err)
	}
	if n := db2.Stats.Compiles.Load() + db2.Stats.Execs.Load(); n != 0 {
		t.Fatalf("warm-started evaluations compiled or simulated %d times", n)
	}
	if db2.Stats.ModelEvals.Load() == 0 {
		t.Fatal("warm-started evaluations ran no model stage")
	}
	if c2.MeanSpeedup() != c1.MeanSpeedup() {
		t.Fatalf("restored profiles score %v, want %v", c2.MeanSpeedup(), c1.MeanSpeedup())
	}
	for _, rec := range []string{"{", `{"DP":{"ISA":{}},"M":[]}`} {
		if err := db2.ImportRecord([]byte(rec)); err == nil {
			t.Errorf("record %s imported", rec)
		}
	}
}
