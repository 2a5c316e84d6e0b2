package explore

import (
	"bytes"
	"context"
	"slices"
	"strings"
	"testing"
)

// paperOrder is the evaluation's experiments in paper order: the names
// compose-explore -experiment accepts besides "all".
var paperOrder = []string{"sec3", "fig2", "fig5", "fig6", "fig7", "fig8", "table3", "table4",
	"fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15"}

func TestExperimentTable(t *testing.T) {
	if got := ExperimentNames(); !slices.Equal(got, paperOrder) {
		t.Fatalf("experiment names = %v, want %v", got, paperOrder)
	}
	all, err := SelectExperiments("all")
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(paperOrder) {
		t.Fatalf("all selects %d experiments, want %d", len(all), len(paperOrder))
	}
	for i, name := range paperOrder {
		if all[i].Name != name || len(all[i].Panels) == 0 {
			t.Errorf("all[%d] = %q with %d panels, want %q with at least one", i, all[i].Name, len(all[i].Panels), name)
		}
		one, err := SelectExperiments(name)
		if err != nil || len(one) != 1 || one[0].Name != name {
			t.Errorf("SelectExperiments(%q) = %v, %v", name, one, err)
		}
	}
	_, err = SelectExperiments("nosuch")
	if err == nil {
		t.Fatal("unknown experiment selected without error")
	}
	if !strings.Contains(err.Error(), strings.Join(paperOrder, ", ")+", or all") {
		t.Errorf("unknown-experiment error %q does not list every name", err)
	}
}

// TestSessionRunsFig9Once: Figures 10 and 11 run in one session draw on one
// Figure 9 result, so Figure 11 neither searches again nor replays Figure
// 9's searches from the frontier (a replay re-evaluates saved design points
// through the candidate tier).
func TestSessionRunsFig9Once(t *testing.T) {
	ctx := context.Background()
	db := smallDB(4, nil)
	s, err := NewSearcher(ctx, db)
	if err != nil {
		t.Fatal(err)
	}
	searches := func() int { return len(s.exportFrontier()) }
	x := &Session{S: s}
	run := func(name string) string {
		t.Helper()
		es, err := SelectExperiments(name)
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if err := es[0].Run(ctx, x, &out); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}

	if out := run("fig10"); !strings.HasPrefix(out, "Figure 10: ") {
		t.Fatalf("fig10 output starts %q", out)
	}
	if searches() == 0 {
		t.Fatal("fig10 ran no Figure 9 searches")
	}
	before, lookups := searches(), db.StatsSnapshot()
	if out := run("fig11"); !strings.HasPrefix(out, "Figure 11: ") {
		t.Fatalf("fig11 output starts %q", out)
	}
	after := db.StatsSnapshot()
	if searches() != before {
		t.Errorf("fig11 ran %d more searches; Figure 9's must run once per session", searches()-before)
	}
	if after.CandidateHits != lookups.CandidateHits || after.CandidateMisses != lookups.CandidateMisses {
		t.Errorf("fig11 looked up %d candidates; it must reuse the session's Figure 9 designs",
			after.CandidateHits+after.CandidateMisses-lookups.CandidateHits-lookups.CandidateMisses)
	}
}
