package eval

import (
	"context"
	"testing"

	"compisa/internal/cpu"
)

// TestCandidateCacheHit: re-evaluating a design point against the DB's own
// reference returns the identical cached candidate without re-running the
// model stage.
func TestCandidateCacheHit(t *testing.T) {
	db := smallDB(3, nil)
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
	evals := db.Stats.ModelEvals.Load()
	c2, err := db.Evaluate(ctx, dp, ref)
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 {
		t.Error("second Evaluate returned a distinct candidate; cache missed")
	}
	if got := db.Stats.ModelEvals.Load(); got != evals {
		t.Errorf("second Evaluate re-ran the model stage: %d -> %d evals", evals, got)
	}
	if db.Stats.CandidateHits.Load() != 1 || db.Stats.CandidateMisses.Load() != 1 {
		t.Errorf("hits/misses = %d/%d, want 1/1",
			db.Stats.CandidateHits.Load(), db.Stats.CandidateMisses.Load())
	}
	if len(db.CandidateKeys()) != 1 {
		t.Errorf("CachedCandidates = %d, want 1", len(db.CandidateKeys()))
	}
}

// TestCandidateCacheForeignRefBypass: an evaluation normalized against a ref
// slice that is not the DB's own memoized reference must bypass the cache —
// caching it would bind the stored speedups to a foreign normalization
// basis.
func TestCandidateCacheForeignRefBypass(t *testing.T) {
	db := smallDB(3, nil)
	ctx := context.Background()
	ref, err := db.ReferenceMetrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	foreign := append([]Metric{}, ref...) // equal values, different identity
	dp := DesignPoint{ISA: injectable(t), Cfg: ReferenceConfig()}
	c1, err := db.Evaluate(ctx, dp, foreign)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := db.Evaluate(ctx, dp, foreign)
	if err != nil {
		t.Fatal(err)
	}
	if c1 == c2 {
		t.Error("foreign-ref evaluations shared a candidate; cache must be bypassed")
	}
	if db.Stats.CandidateHits.Load() != 0 || db.Stats.CandidateMisses.Load() != 0 {
		t.Errorf("cache counters moved (%d/%d) on uncacheable evaluations",
			db.Stats.CandidateHits.Load(), db.Stats.CandidateMisses.Load())
	}
	if len(db.CandidateKeys()) != 0 {
		t.Errorf("CachedCandidates = %d, want 0", len(db.CandidateKeys()))
	}
}

// TestCandidatesSharedAcrossCalls: a second Candidates sweep over the same
// choices and configurations is served entirely from the candidate cache.
func TestCandidatesSharedAcrossCalls(t *testing.T) {
	db := smallDB(2, nil)
	ctx := context.Background()
	ref, err := db.ReferenceMetrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	choices := XIzedChoices()
	small := ReferenceConfig()
	small.Width, small.IntALU = 2, 3
	cfgs := []cpu.CoreConfig{ReferenceConfig(), small}
	cs1, err := db.Candidates(ctx, choices, cfgs, ref)
	if err != nil {
		t.Fatal(err)
	}
	evals := db.Stats.ModelEvals.Load()
	cs2, err := db.Candidates(ctx, choices, cfgs, ref)
	if err != nil {
		t.Fatal(err)
	}
	if got := db.Stats.ModelEvals.Load(); got != evals {
		t.Errorf("second sweep re-ran the model stage: %d -> %d evals", evals, got)
	}
	for i := range cs1 {
		if cs1[i] != cs2[i] {
			t.Fatalf("candidate %d not shared across sweeps", i)
		}
	}
}

// TestStateRoundtrip: Export → Import into a fresh DB restores the profile
// tier, the quarantine list and the stats, and Rescore refills the
// candidate tier from the exported points without simulating.
func TestStateRoundtrip(t *testing.T) {
	db1 := smallDB(3, nil)
	ctx := context.Background()
	ref, err := db1.ReferenceMetrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	dp := DesignPoint{ISA: injectable(t), Cfg: ReferenceConfig()}
	c1, err := db1.Evaluate(ctx, dp, ref)
	if err != nil {
		t.Fatal(err)
	}
	st := db1.Export()
	if len(st.Profiles) == 0 || len(st.Points) != 1 || st.Stats.IsZero() {
		t.Fatalf("export missing state: %d profiles, %d points, zero stats %v",
			len(st.Profiles), len(st.Points), st.Stats.IsZero())
	}

	db2 := smallDB(3, nil)
	db2.Import(st)
	if len(db2.CandidateKeys()) != 0 {
		t.Fatalf("Import evaluated %d candidates, want 0", len(db2.CandidateKeys()))
	}
	if db2.Stats.ModelEvals.Load() != st.Stats.ModelEvals {
		t.Errorf("imported ModelEvals = %d, want %d", db2.Stats.ModelEvals.Load(), st.Stats.ModelEvals)
	}
	if err := db2.Rescore(ctx, st.Points); err != nil {
		t.Fatal(err)
	}
	if len(db2.CandidateKeys()) != len(st.Points) {
		t.Fatalf("rescored %d candidates, want %d", len(db2.CandidateKeys()), len(st.Points))
	}
	if got := db2.Stats.Execs.Load(); got != st.Stats.Execs {
		t.Errorf("the re-score simulated %d times", got-st.Stats.Execs)
	}
	// The re-scored candidate serves Evaluate without recomputation.
	ref2, err := db2.ReferenceMetrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	evals := db2.Stats.ModelEvals.Load()
	c2, err := db2.Evaluate(ctx, dp, ref2)
	if err != nil {
		t.Fatal(err)
	}
	if got := db2.Stats.ModelEvals.Load(); got != evals {
		t.Errorf("re-scored candidate did not serve the evaluation: %d -> %d evals", evals, got)
	}
	if c2.DP.CacheKey() != c1.DP.CacheKey() || c2.MeanSpeedup() != c1.MeanSpeedup() {
		t.Error("re-scored candidate keyed or scored differently")
	}

	// Profile sets whose region count mismatches the suite are skipped, and
	// so are the points that would need them.
	db3 := smallDB(2, nil)
	db3.Import(st)
	if err := db3.Rescore(ctx, st.Points); err != nil {
		t.Fatal(err)
	}
	if len(db3.CandidateKeys()) != 0 || db3.Stats.Execs.Load() != st.Stats.Execs {
		t.Errorf("mismatched-suite restore kept %d candidates and simulated %d times, want 0 and 0",
			len(db3.CandidateKeys()), db3.Stats.Execs.Load()-st.Stats.Execs)
	}
}

// TestCoverageDeterministic: the quarantine list comes back in the same
// (ISA, region) order on every call.
func TestCoverageDeterministic(t *testing.T) {
	db := smallDB(3, nil)
	db.quarantine = map[string]string{
		"r2|isaB": "x", "r1|isaB": "x", "r9|isaA": "x", "r0|isaC": "x",
	}
	first := db.Coverage()
	for i := 0; i < 10; i++ {
		again := db.Coverage()
		for j := range first.Quarantined {
			if first.Quarantined[j] != again.Quarantined[j] {
				t.Fatalf("call %d: order changed at %d: %+v vs %+v",
					i, j, first.Quarantined[j], again.Quarantined[j])
			}
		}
	}
	want := []QuarantinedPair{
		{"r9", "isaA", "x"}, {"r1", "isaB", "x"}, {"r2", "isaB", "x"}, {"r0", "isaC", "x"},
	}
	for i, q := range first.Quarantined {
		if q != want[i] {
			t.Fatalf("Quarantined[%d] = %+v, want %+v (ISA then region order)", i, q, want[i])
		}
	}
}
