package eval_test

import (
	"fmt"
	"testing"

	"compisa/internal/cpu"
	"compisa/internal/eval"
	"compisa/internal/explore"
)

// legacyCacheKey is the fmt-based CacheKey derivation the strconv builder
// replaced, kept as the fixture that pins its exact bytes.
func legacyCacheKey(d eval.DesignPoint) string {
	cache := func(c cpu.CacheCfg) string {
		return fmt.Sprintf("%dk/%d/%d", c.SizeKB, c.Assoc, c.Banks)
	}
	c := d.Cfg
	return fmt.Sprintf("%s|ooo=%t,w=%d,bp=%s,iq=%d,rob=%d,prfi=%d,prff=%d,alu=%d,mul=%d,fpu=%d,lsq=%d,l1i=%s,l1d=%s,l2=%s,uop=%t,fuse=%t",
		d.ISA.Key(), c.OoO, c.Width, c.Predictor.ShortString(), c.IQ, c.ROB,
		c.PRFInt, c.PRFFP, c.IntALU, c.IntMul, c.FPALU, c.LSQ,
		cache(c.L1I), cache(c.L1D), cache(c.L2), c.UopCache, c.Fusion)
}

// TestCacheKeyMatchesLegacyFormat: the key is a cross-process identity
// (runs saved by older binaries must still hit), so
// every (choice, configuration) point of the exploration grid, plus the
// reference core, must produce exactly the legacy bytes.
func TestCacheKeyMatchesLegacyFormat(t *testing.T) {
	cfgs := append(explore.Configs(), eval.ReferenceConfig())
	n := 0
	for _, ch := range eval.AllChoices() {
		for _, cfg := range cfgs {
			dp := eval.DesignPoint{ISA: ch, Cfg: cfg}
			if got, want := dp.CacheKey(), legacyCacheKey(dp); got != want {
				t.Fatalf("CacheKey drifted from the legacy format:\n got %s\nwant %s", got, want)
			}
			n++
		}
	}
	if want := 33 * 181; n != want {
		t.Errorf("checked %d points, want %d", n, want)
	}
}
