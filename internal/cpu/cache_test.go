package cpu

import (
	"math/rand"
	"testing"
)

// TestCacheAccessRankMatchesPerAssocCaches proves that one LRU stack with
// the L2Cfg8M geometry answers both L2 options: on every access, rank < 4
// must equal an independent L2Cfg4M model's hit and rank < 8 an
// independent L2Cfg8M model's hit — across Reset's epoch floor and across
// the full clear Reset takes once the stamp space is half used.
func TestCacheAccessRankMatchesPerAssocCaches(t *testing.T) {
	stack, c4, c8 := NewCache(L2Cfg8M), NewCache(L2Cfg4M), NewCache(L2Cfg8M)
	sets := uint64(stack.sets)
	rng := rand.New(rand.NewSource(7))
	var split int // accesses that miss the 4-way model and hit the 8-way one
	check := func(phase string, addr uint64) {
		t.Helper()
		rank := stack.accessRank(addr)
		h4, h8 := c4.Access(addr), c8.Access(addr)
		if got := rank >= 0 && rank < L2Cfg4M.Assoc; got != h4 {
			t.Fatalf("%s: addr %#x rank %d, 4-way model hit=%v", phase, addr, rank, h4)
		}
		if got := rank >= 0 && rank < L2Cfg8M.Assoc; got != h8 {
			t.Fatalf("%s: addr %#x rank %d, 8-way model hit=%v", phase, addr, rank, h8)
		}
		if h8 && !h4 {
			split++
		}
	}
	// Uniform over 6 MB: about six live lines per set, so ranks straddle
	// both associativities.
	random := func(phase string, n int) {
		for i := 0; i < n; i++ {
			check(phase, uint64(rng.Int63n(6<<20)))
		}
	}
	// Same-set conflicts: up to 12 distinct lines in each of a few sets.
	conflict := func(phase string, n int) {
		for i := 0; i < n; i++ {
			line := uint64(rng.Intn(12))*sets + uint64(rng.Intn(3))
			check(phase, line*cacheLineBytes+uint64(rng.Intn(cacheLineBytes)))
		}
	}
	resetAll := func() {
		stack.Reset()
		c4.Reset()
		c8.Reset()
	}

	random("random", 200_000)
	conflict("conflict", 50_000)
	resetAll()
	conflict("after reset", 50_000)
	random("after reset", 100_000)

	// Push the stamps past half the 32-bit space; the next Reset must take
	// the full-clear path.
	for _, c := range []*Cache{stack, c4, c8} {
		c.stamp = 1<<31 - 1000
	}
	conflict("near stamp wrap", 5_000)
	resetAll()
	if stack.stamp != 0 || c4.stamp != 0 || c8.stamp != 0 {
		t.Fatalf("Reset past 1<<31 did not fully clear: stamps %d %d %d", stack.stamp, c4.stamp, c8.stamp)
	}
	conflict("after full clear", 50_000)
	random("after full clear", 100_000)

	if stack.Accesses != c8.Accesses || stack.Misses != c8.Misses {
		t.Errorf("stack counters %d/%d, 8-way model %d/%d", stack.Accesses, stack.Misses, c8.Accesses, c8.Misses)
	}
	if split == 0 {
		t.Fatal("no access separated the two associativities; the streams are too tame")
	}
}

// TestL2OptionsNestLRU pins what the profiler's single L2 stack per (L1I,
// L1D) pair relies on: every L2 option has the same set count (so they map
// each line to the same set) and the stack's associativity covers every
// option's. Changing the Table I options so they no longer nest must fail
// here rather than silently mis-profile.
func TestL2OptionsNestLRU(t *testing.T) {
	stack := NewCache(l2Stack)
	for l, cfg := range L2Options {
		c := NewCache(cfg)
		if c.sets != stack.sets {
			t.Errorf("L2Options[%d] %+v has %d sets, the stack %+v has %d", l, cfg, c.sets, l2Stack, stack.sets)
		}
		if cfg.Assoc > l2Stack.Assoc {
			t.Errorf("L2Options[%d] %+v is wider than the stack %+v", l, cfg, l2Stack)
		}
	}
}
