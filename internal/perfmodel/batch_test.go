package perfmodel_test

import (
	"fmt"
	"hash/fnv"
	"testing"

	"compisa/internal/compiler"
	"compisa/internal/cpu"
	"compisa/internal/explore"
	"compisa/internal/golden"
	"compisa/internal/isa"
	"compisa/internal/perfmodel"
	"compisa/internal/workload"
)

// batchProfile compiles and profiles one region under one feature set, with
// a truncated budget to keep the full-config-sweep comparison fast.
func batchProfile(t *testing.T, name string, fs isa.FeatureSet) *cpu.Profile {
	t.Helper()
	var reg workload.Region
	for _, r := range workload.Regions() {
		if r.Name == name {
			reg = r
		}
	}
	if reg.Build == nil {
		t.Fatalf("unknown region %s", name)
	}
	f, m, err := reg.Build(fs.Width)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := compiler.Compile(f, fs, compiler.Options{Verify: compiler.VerifyOff})
	if err != nil {
		t.Fatal(err)
	}
	prog.Name = reg.Name
	prof, _, err := cpu.CollectProfile(prog, m, 2_000_000)
	if err != nil {
		t.Fatal(err)
	}
	return prof
}

// TestScorerDigest pins Scorer.Cycles for real profiles across both
// complexity modes over the entire exploration configuration grid, one
// fixture line per (profile, configuration): the predicted cycles and a hash
// of every Result field. Cycles and CyclesBatch must agree with the Scorer
// bit for bit. A mismatch names the moved lines and writes the recomputed
// table to a temporary file whose path the failure logs; review it and copy
// it over testdata/scorer.golden to record an intentional change.
func TestScorerDigest(t *testing.T) {
	cfgs := explore.Configs()
	if len(cfgs) < 100 {
		t.Fatalf("configuration grid unexpectedly small: %d", len(cfgs))
	}
	var lines []string
	for _, tc := range []struct {
		region string
		fs     isa.FeatureSet
	}{
		{"gobmk.0", isa.X8664},
		{"milc.0", isa.X8664},
		{"mcf.0", isa.MicroX86Min},
	} {
		prof := batchProfile(t, tc.region, tc.fs)
		s, err := perfmodel.NewScorer(prof)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := perfmodel.CyclesBatch(prof, cfgs)
		if err != nil {
			t.Fatal(err)
		}
		for i, cfg := range cfgs {
			got, err := s.Cycles(cfg)
			if err != nil {
				t.Fatalf("%s cfg %d: %v", tc.region, i, err)
			}
			if one, err := perfmodel.Cycles(prof, cfg); err != nil || one != got {
				t.Fatalf("%s cfg %d: Cycles %+v (err %v), Scorer %+v", tc.region, i, one, err, got)
			}
			if rs[i] != got {
				t.Fatalf("%s cfg %d: CyclesBatch %+v, Scorer %+v", tc.region, i, rs[i], got)
			}
			h := fnv.New64a()
			fmt.Fprintf(h, "%+v", got)
			lines = append(lines, fmt.Sprintf("%s %s cfg%03d\tcycles=%v sum=%016x",
				tc.region, tc.fs.ShortName(), i, got.Cycles, h.Sum64()))
		}
	}
	golden.Check(t, "scorer.golden", lines, false)
}

// TestScorerEmptyProfile: Scorer construction rejects an empty profile with
// the same error the per-call path reports.
func TestScorerEmptyProfile(t *testing.T) {
	empty := &cpu.Profile{}
	_, serr := perfmodel.NewScorer(empty)
	_, cerr := perfmodel.Cycles(empty, explore.Configs()[0])
	if serr == nil || cerr == nil {
		t.Fatalf("empty profile accepted: scorer err %v, cycles err %v", serr, cerr)
	}
	if serr.Error() != cerr.Error() {
		t.Fatalf("error text mismatch: %q vs %q", serr, cerr)
	}
	if _, err := perfmodel.CyclesBatch(empty, explore.Configs()[:3]); err == nil ||
		err.Error() != cerr.Error() {
		t.Fatalf("CyclesBatch error %v, want %v", err, cerr)
	}
}
