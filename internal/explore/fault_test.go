// Integration-level fault-tolerance tests: search, checkpoint, and
// cancellation behavior under injection. The pipeline-level fault tests
// (retry, quarantine, degradation, singleflight) live with the evaluation
// layer in internal/eval.

package explore

import (
	"context"
	"errors"
	"math"
	"path/filepath"
	"testing"
	"time"

	"compisa/internal/fault"
)

// injector builds a deterministic fault injector or fails the test.
func injector(t *testing.T, cfg fault.Config) *fault.Injector {
	t.Helper()
	in, err := fault.NewInjector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// smallDB shrinks the suite to its first n regions so fault-path tests stay
// fast; the fault machinery is region-count agnostic.
func smallDB(n int, in *fault.Injector) *DB {
	db := NewDB()
	db.Regions = db.Regions[:n]
	db.Inject = in
	return db
}

// TestFaultCancelMidSearch: canceling the context mid-search returns
// context.Canceled promptly instead of finishing the sweep.
func TestFaultCancelMidSearch(t *testing.T) {
	db := smallDB(3, nil)
	ctx := context.Background()
	s, err := NewSearcher(ctx, db)
	if err != nil {
		t.Fatal(err)
	}
	cctx, cancel := context.WithCancel(ctx)
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = s.Search(cctx, OrgCompositeFull, ObjMPThroughput, Budget{AreaMM2: 64})
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v; must abort promptly", elapsed)
	}
}

// TestFaultCheckpointRoundtrip: a faulty run checkpointed to disk restores
// into a fresh DB/Searcher (with no injector at all) and reproduces the same
// search result and coverage without recomputation.
func TestFaultCheckpointRoundtrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dse.ckpt")
	in := injector(t, fault.Config{Seed: 9, Rate: 0.4, Kinds: []fault.Kind{fault.KindCompile}})
	db1 := smallDB(3, in)
	ctx := context.Background()
	s1, err := NewSearcher(ctx, db1)
	if err != nil {
		t.Fatal(err)
	}
	budget := Budget{AreaMM2: 64}
	cmp1, err := s1.Search(ctx, OrgCompositeFixed, ObjMPThroughput, budget)
	if err != nil {
		t.Fatal(err)
	}
	if err := SaveCheckpoint(path, Snapshot(db1, s1)); err != nil {
		t.Fatal(err)
	}

	st, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if st == nil {
		t.Fatal("saved checkpoint reported missing")
	}
	if st.Version != checkpointVersion {
		t.Fatalf("checkpoint version %d, want %d", st.Version, checkpointVersion)
	}
	if len(st.Points) == 0 {
		t.Fatal("checkpoint should carry the candidate tier's design points")
	}
	if st.Stats.IsZero() {
		t.Fatal("checkpoint should carry pipeline stats")
	}
	// The resumed run injects nothing: only the restored state can reproduce
	// the faulty run's quarantines and scores.
	db2 := smallDB(3, nil)
	db2.Import(st.State)
	if err := db2.Rescore(ctx, st.Points); err != nil {
		t.Fatal(err)
	}
	s2, err := NewSearcher(ctx, db2)
	if err != nil {
		t.Fatal(err)
	}
	st.RestoreSearcher(s2)
	// Re-scored candidates satisfy the resumed search without scoring anew,
	// and nothing simulates.
	evalsAfterRestore := db2.Stats.ModelEvals.Load()
	cmp2, err := s2.Search(ctx, OrgCompositeFixed, ObjMPThroughput, budget)
	if err != nil {
		t.Fatal(err)
	}
	if got := db2.Stats.ModelEvals.Load(); got != evalsAfterRestore {
		t.Errorf("resumed search re-scored design points: ModelEvals %d -> %d", evalsAfterRestore, got)
	}
	if got := db2.Stats.Execs.Load(); got != st.Stats.Execs {
		t.Errorf("resumed run simulated %d times", got-st.Stats.Execs)
	}
	if cmp1.Score != cmp2.Score {
		t.Errorf("resumed score %v != original %v", cmp2.Score, cmp1.Score)
	}
	for i := range cmp1.Cores {
		if cmp1.Cores[i].DP.String() != cmp2.Cores[i].DP.String() {
			t.Errorf("core %d: resumed %s != original %s", i, cmp2.Cores[i].DP, cmp1.Cores[i].DP)
		}
	}
	if a, b := db1.Coverage().String(), db2.Coverage().String(); a != b {
		t.Errorf("resumed coverage %s != original %s", b, a)
	}
	if _, err := LoadCheckpoint(filepath.Join(t.TempDir(), "absent.ckpt")); err != nil {
		t.Errorf("missing checkpoint should be a silent empty state, got %v", err)
	}
}

// TestFaultSearchCompletesUnderInjection: a full composite search at a
// realistic fault rate still completes, reports partial coverage, and keeps
// every core's score finite.
func TestFaultSearchCompletesUnderInjection(t *testing.T) {
	in := injector(t, fault.Config{Seed: 5, Rate: 0.15, TransientFrac: 0.3})
	db := smallDB(3, in)
	ctx := context.Background()
	s, err := NewSearcher(ctx, db)
	if err != nil {
		t.Fatal(err)
	}
	cmp, err := s.Search(ctx, OrgCompositeFull, ObjMPThroughput, Budget{AreaMM2: 96})
	if err != nil {
		t.Fatalf("search must survive injection: %v", err)
	}
	if math.IsNaN(cmp.Score) || cmp.Score <= 0 {
		t.Fatalf("score %v must stay finite and positive under degradation", cmp.Score)
	}
	cov := db.Coverage()
	if cov.Total == 0 || cov.Evaluated+len(cov.Quarantined) != cov.Total {
		t.Fatalf("inconsistent coverage %s", cov)
	}
	t.Logf("coverage under 15%% injection: %s", cov)
}
