package perfmodel

import (
	"fmt"
	"math"

	"compisa/internal/cpu"
)

// Scorer precomputes every configuration-independent term of the interval
// model for one profile, so scoring all ~180 microarch configurations of
// the exploration space walks the profile's struct-of-arrays once instead
// of recomputing fractions, rates, and naive stall sums per configuration.
//
// Scorer.Cycles is the interval model itself; the package-level Cycles is
// a one-configuration Scorer. testdata/scorer.golden pins its results over
// the exploration grid.
type Scorer struct {
	p *cpu.Profile

	n        float64
	fracInt  float64
	fracMul  float64
	fracFP   float64 // UcFP + UcFDiv combined (divides share FP units)
	loadB    float64 // precomputed bounds for the fixed-unit classes
	storeB   float64
	branchB  float64
	legacyUR float64 // legacy decode uop rate
	dispFuse float64 // dispatch slots saved by fusion

	mispredicts [cpu.NumPredictors]float64

	// Per cache combination [l1i][l1d][l2].
	naive     [2][2][2]float64
	l1dMisses [2][2][2]float64
	l2Misses  [2][2][2]float64
	l1iMisses [2][2][2]float64

	exposure float64 // clamped dependence-aware exposure ratio
}

// NewScorer builds a batch scorer over one profile.
func NewScorer(p *cpu.Profile) (*Scorer, error) {
	n := float64(p.Uops)
	if n == 0 {
		return nil, fmt.Errorf("perfmodel: empty profile")
	}
	s := &Scorer{p: p, n: n}
	s.fracInt = float64(p.UopsByClass[cpu.UcInt]) / n
	s.fracMul = float64(p.UopsByClass[cpu.UcMul]) / n
	s.fracFP = float64(p.UopsByClass[cpu.UcFP]+p.UopsByClass[cpu.UcFDiv]) / n
	s.loadB, s.storeB, s.branchB = math.Inf(1), math.Inf(1), math.Inf(1)
	if frac := float64(p.UopsByClass[cpu.UcLoad]) / n; frac > 0 {
		s.loadB = 2 / frac
	}
	if frac := float64(p.UopsByClass[cpu.UcStore]) / n; frac > 0 {
		s.storeB = 1 / frac
	}
	if frac := float64(p.UopsByClass[cpu.UcBranch]) / n; frac > 0 {
		s.branchB = 1 / frac
	}

	// Front-end supply: micro-op cache hits stream at full width; misses
	// go through the ILD (16 B/cycle) and at most 3 decoders.
	uopsPerInstr := n / float64(p.Instrs)
	legacyInstrRate := math.Min(3, 16.0/math.Max(1, p.AvgInstrLen))
	s.legacyUR = legacyInstrRate * uopsPerInstr
	// Macro- and micro-op fusion let full-x86 cores dispatch load+op pairs
	// and CMP+JCC pairs in single slots.
	s.dispFuse = float64(p.MemALUOps + p.FusedBranches)

	for k := 0; k < cpu.NumPredictors; k++ {
		s.mispredicts[k] = p.MispredictRate[k] * float64(p.Branches)
	}

	// Naive (fully exposed, serial) memory stall per cache configuration.
	l2Extra := float64(cpu.LatL2 - cpu.LatL1)
	memExtra := float64(cpu.LatMem - cpu.LatL1)
	for i := 0; i < 2; i++ {
		for d := 0; d < 2; d++ {
			for l := 0; l < 2; l++ {
				mp := p.Mem[i][d][l]
				l2Hits := float64(mp.L1DMisses - mp.L2Misses)
				s.naive[i][d][l] = l2Hits*l2Extra + float64(mp.L2Misses)*memExtra
				s.l1dMisses[i][d][l] = float64(mp.L1DMisses)
				s.l2Misses[i][d][l] = float64(mp.L2Misses)
				s.l1iMisses[i][d][l] = float64(mp.L1IMisses)
			}
		}
	}

	// The dependence-aware exposure measured on the reference hierarchy at
	// a 128-uop window. Cycles scales it by each configuration's naive miss
	// volume: pointer chases expose ~everything, streaming hides
	// ~everything, and smaller windows expose more.
	s.exposure = 1.0
	if p.NaiveStallRef > 0 {
		s.exposure = p.MemExposedCycles / p.NaiveStallRef
		if s.exposure > 1 {
			s.exposure = 1
		}
	}
	return s, nil
}

// Cycles predicts the cycle count for one configuration using the
// precomputed terms.
func (s *Scorer) Cycles(cfg cpu.CoreConfig) (Result, error) {
	var r Result
	p := s.p
	n := s.n
	i1, err := cacheOptIdx(cfg.L1I, cpu.L1IOptions)
	if err != nil {
		return r, err
	}
	d1, err := cacheOptIdx(cfg.L1D, cpu.L1DOptions)
	if err != nil {
		return r, err
	}
	l2, err := cacheOptIdx(cfg.L2, cpu.L2Options)
	if err != nil {
		return r, err
	}

	// ---- Effective dispatch rate. ----
	width := float64(cfg.Width)
	var ilp float64
	if cfg.OoO {
		window := cfg.ROB
		if q := cfg.IQ * 3; q < window {
			window = q
		}
		ilp = ilpAt(p, window)
	} else {
		ilp = p.IPCInOrder
	}

	fuBound := math.Inf(1)
	if s.fracInt > 0 {
		if b := float64(cfg.IntALU) / s.fracInt; b < fuBound {
			fuBound = b
		}
	}
	if s.fracMul > 0 {
		if b := float64(cfg.IntMul) / s.fracMul; b < fuBound {
			fuBound = b
		}
	}
	if s.fracFP > 0 {
		if b := float64(cfg.FPALU) / s.fracFP; b < fuBound {
			fuBound = b
		}
	}
	if s.loadB < fuBound {
		fuBound = s.loadB
	}
	if s.storeB < fuBound {
		fuBound = s.storeB
	}
	if s.branchB < fuBound {
		fuBound = s.branchB
	}

	h := 0.0
	if cfg.UopCache {
		h = p.UopCacheHitRate
	}
	frontend := h*width + (1-h)*math.Min(width, s.legacyUR)

	dispatchN := n
	if cfg.Fusion && p.X86Complexity {
		dispatchN -= s.dispFuse
	}
	base := dispatchN / width
	for _, b := range []float64{n / ilp, n / fuBound, n / frontend} {
		if b > base {
			base = b
		}
	}
	r.Base = base

	// ---- Branch misprediction stalls. ----
	r.Mispredicts = s.mispredicts[cfg.Predictor]
	penalty := float64(cpu.FrontendDepth) + 3 // refill + resolve
	if !cfg.OoO {
		penalty = float64(cpu.FrontendDepth)/2 + 2
	}
	r.BranchStall = r.Mispredicts * penalty

	// ---- Exposed memory stalls. ----
	naive := s.naive[i1][d1][l2]
	if cfg.OoO {
		exposure := s.exposure
		windowScale := 1.0
		if cfg.ROB < 128 {
			windowScale = 1 + (1-exposure)*(128-float64(cfg.ROB))/128*0.5
		}
		e := exposure * windowScale
		if e > 1 {
			e = 1
		}
		r.MemStall = naive * e
	} else {
		// In-order cores block on every load-use: nearly full exposure.
		r.MemStall = naive * 0.95
	}
	r.L1DMisses = s.l1dMisses[i1][d1][l2]
	r.L2Misses = s.l2Misses[i1][d1][l2]

	// ---- Instruction fetch stalls. ----
	r.L1IMisses = s.l1iMisses[i1][d1][l2]
	r.FetchStall = r.L1IMisses * float64(cpu.LatL2) * 0.8

	r.Cycles = r.Base + r.BranchStall + r.MemStall + r.FetchStall
	return r, nil
}

// CyclesBatch scores every configuration against one profile in a single
// pass, failing on the first configuration error.
func CyclesBatch(p *cpu.Profile, cfgs []cpu.CoreConfig) ([]Result, error) {
	s, err := NewScorer(p)
	if err != nil {
		return nil, err
	}
	out := make([]Result, len(cfgs))
	for i := range cfgs {
		out[i], err = s.Cycles(cfgs[i])
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
