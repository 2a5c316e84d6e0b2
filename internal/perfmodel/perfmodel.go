// Package perfmodel implements a mechanistic (interval-style) performance
// model: given one profiling pass of a (region, feature set) pair, it
// predicts the cycle count of any microarchitectural configuration from the
// exploration space. This is what makes the paper's 4680-design-point,
// 49-region sweep tractable — the detailed simulator in internal/cpu is used
// to validate the model, not to drive the search.
//
// The model composes the classic interval terms:
//
//	cycles = N/Deff + mispredicts*penalty + exposed memory stalls + fetch stalls
//
// where the effective dispatch rate Deff is bounded by issue width, by the
// dependence-limited ILP curve measured at the configuration's window size,
// by functional-unit throughput for the profiled micro-op mix, and by
// front-end supply (micro-op cache hit rate and ILD/legacy decode bandwidth).
package perfmodel

import (
	"fmt"

	"compisa/internal/cpu"
)

// Result reports predicted cycles and their decomposition.
type Result struct {
	Cycles      float64
	Base        float64 // dispatch/dependence-bound portion
	BranchStall float64
	MemStall    float64
	FetchStall  float64
	// Activity passed through for the energy model.
	Mispredicts float64
	L1DMisses   float64
	L2Misses    float64
	L1IMisses   float64
}

// cacheOptIdx maps a cache config onto the profile's option index.
func cacheOptIdx(c cpu.CacheCfg, opts [2]cpu.CacheCfg) (int, error) {
	for i, o := range opts {
		if o.SizeKB == c.SizeKB && o.Assoc == c.Assoc {
			return i, nil
		}
	}
	return 0, fmt.Errorf("perfmodel: cache config %+v not profiled", c)
}

// ilpAt interpolates the dependence-limited IPC curve at a window size.
// The curve is a fixed-size array indexed by cpu.ILPWindows, walked in
// order — no map iteration, so the bracketing points are found
// deterministically.
func ilpAt(p *cpu.Profile, window int) float64 {
	lo, hi := 0, 0
	loV, hiV := 0.0, 0.0
	for i, w := range cpu.ILPWindows {
		v := p.IPCWindow[i]
		if w <= window && w > lo {
			lo, loV = w, v
		}
		if w >= window && (hi == 0 || w < hi) {
			hi, hiV = w, v
		}
	}
	switch {
	case lo == 0:
		return hiV
	case hi == 0:
		return loV
	case lo == hi:
		return loV
	default:
		f := float64(window-lo) / float64(hi-lo)
		return loV + f*(hiV-loV)
	}
}

// Cycles predicts the cycle count of running the profiled region on cfg. It
// is a one-configuration Scorer; callers scoring many configurations
// against one profile should build the Scorer once.
func Cycles(p *cpu.Profile, cfg cpu.CoreConfig) (Result, error) {
	s, err := NewScorer(p)
	if err != nil {
		return Result{}, err
	}
	return s.Cycles(cfg)
}
