package eval

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestCacheKeyStable pins the candidate-tier key format. The key is a
// cross-process identity — checkpoints written by compose-explore must
// warm-start compose-serve on another host — so its derivation may depend
// only on field values (no map iteration, no pointer formatting, no
// reflective struct dumps whose output shifts with declaration order). Any
// intentional format change must update this golden and bump the
// checkpoint version.
func TestCacheKeyStable(t *testing.T) {
	dp := DesignPoint{ISA: X8664Choice(), Cfg: ReferenceConfig()}
	const want = "x86-16D-64W-P|ooo=true,w=4,bp=T,iq=64,rob=128,prfi=192,prff=160,alu=6,mul=2,fpu=4,lsq=32,l1i=64k/4/0,l1d=64k/4/0,l2=8192k/8/4,uop=true,fuse=true"
	if got := dp.CacheKey(); got != want {
		t.Errorf("CacheKey drifted:\n got %s\nwant %s", got, want)
	}

	// A JSON round trip (the checkpoint boundary) must preserve the key.
	data, err := json.Marshal(dp)
	if err != nil {
		t.Fatal(err)
	}
	var back DesignPoint
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.CacheKey() != dp.CacheKey() {
		t.Errorf("key changed across JSON: %s -> %s", dp.CacheKey(), back.CacheKey())
	}

	// Vendor choices key by vendor name, and distinct design points must
	// never collide.
	seen := map[string]string{}
	for _, c := range AllChoices() {
		k := DesignPoint{ISA: c, Cfg: ReferenceConfig()}.CacheKey()
		if prev, ok := seen[k]; ok && prev != c.Key() {
			t.Errorf("key collision: %s and %s share %q", prev, c.Key(), k)
		}
		seen[k] = c.Key()
	}
}

// TestChoiceByKey: every enumerable choice's key parses back to an
// equivalent choice, and junk keys are rejected.
func TestChoiceByKey(t *testing.T) {
	for _, c := range AllChoices() {
		got, ok := ChoiceByKey(c.Key())
		if !ok {
			t.Fatalf("ChoiceByKey(%q) not found", c.Key())
		}
		if got.Key() != c.Key() {
			t.Errorf("ChoiceByKey(%q) resolved to %q", c.Key(), got.Key())
		}
	}
	if _, ok := ChoiceByKey("x86-99D-64W-P"); ok {
		t.Error("invalid key resolved")
	}
	if keys := ChoiceKeys(); len(keys) < 27 {
		t.Errorf("ChoiceKeys returned %d keys, want >= 27 (reference + 26 composites)", len(keys))
	}
}

// TestStateCrossProcessRoundtrip drives the checkpoint warm-start path the
// way two different binaries would: the state crosses a real JSON file (not
// an in-memory Export/Import handoff), and the importing DB must re-score
// the reference metrics and the exported point without a single new
// simulation, then serve the point without a new model evaluation — the
// property compose-serve's warm start depends on.
func TestStateCrossProcessRoundtrip(t *testing.T) {
	ctx := context.Background()
	db1 := smallDB(3, nil)
	ref, err := db1.ReferenceMetrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	dp := DesignPoint{ISA: injectable(t), Cfg: ReferenceConfig()}
	c1, err := db1.Evaluate(ctx, dp, ref)
	if err != nil {
		t.Fatal(err)
	}

	// Process boundary: serialize to a file, read it back fresh.
	path := filepath.Join(t.TempDir(), "state.json")
	data, err := json.Marshal(db1.Export())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var st State
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}

	db2 := smallDB(3, nil)
	db2.Import(st)
	if err := db2.Rescore(ctx, st.Points); err != nil {
		t.Fatal(err)
	}
	if got := db2.Stats.Execs.Load(); got != st.Stats.Execs {
		t.Errorf("warm start ran %d new simulations, want 0", got-st.Stats.Execs)
	}
	ref2, err := db2.ReferenceMetrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref2 {
		if ref2[i].Cycles != ref[i].Cycles || ref2[i].Energy != ref[i].Energy {
			t.Errorf("restored reference metric %d differs: %+v vs %+v", i, ref2[i], ref[i])
		}
	}
	evals := db2.Stats.ModelEvals.Load()
	c2, err := db2.Evaluate(ctx, dp, ref2)
	if err != nil {
		t.Fatal(err)
	}
	if got := db2.Stats.ModelEvals.Load(); got != evals {
		t.Errorf("re-scored candidate did not serve across the file boundary: %d new evals", got-evals)
	}
	if c2.DP.CacheKey() != c1.DP.CacheKey() {
		t.Errorf("candidate keyed differently across the file boundary: %s vs %s",
			c2.DP.CacheKey(), c1.DP.CacheKey())
	}
	if c2.MeanSpeedup() != c1.MeanSpeedup() {
		t.Errorf("restored candidate scores differently: %v vs %v", c2.MeanSpeedup(), c1.MeanSpeedup())
	}
}
