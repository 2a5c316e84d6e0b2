// Tests for cross-search candidate reuse (the candidate cache tier).

package explore

import (
	"context"
	"testing"
)

// TestCandidateReuseAcrossSearchers: back-to-back experiments in one process
// share the DB's candidate cache — a second Searcher running a different
// objective over the same organization performs zero new model evaluations.
func TestCandidateReuseAcrossSearchers(t *testing.T) {
	db := smallDB(3, nil)
	ctx := context.Background()
	s1, err := NewSearcher(ctx, db)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Search(ctx, OrgCompositeFixed, ObjMPThroughput, Budget{AreaMM2: 64}); err != nil {
		t.Fatal(err)
	}
	evals := db.Stats.ModelEvals.Load()
	if evals == 0 {
		t.Fatal("first search performed no model evaluations; counter not wired")
	}

	// A fresh Searcher simulates a second experiment driver in the same
	// process: different objective, same underlying design points.
	s2, err := NewSearcher(ctx, db)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Search(ctx, OrgCompositeFixed, ObjMPEDP, Budget{AreaMM2: 64}); err != nil {
		t.Fatal(err)
	}
	if got := db.Stats.ModelEvals.Load(); got != evals {
		t.Errorf("second searcher re-ran the model stage: ModelEvals %d -> %d", evals, got)
	}
	if db.Stats.CandidateHits.Load() == 0 {
		t.Error("second searcher recorded no candidate-cache hits")
	}
}
