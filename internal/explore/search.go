package explore

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"compisa/internal/par"
	"compisa/internal/workload"
)

// Budget constrains a 4-core CMP. Zero fields are unlimited. For
// single-thread objectives the power budget applies to one core at a time
// (dynamic multicore topology: only one core is powered on).
type Budget struct {
	PeakW   float64
	AreaMM2 float64
}

// String names the budget; the searcher's frontier keys embed it, so two
// budgets that differ in either cap must print differently. Single-cap and
// unlimited budgets keep the forms saved run records already store.
func (b Budget) String() string {
	switch {
	case b.PeakW > 0 && b.AreaMM2 > 0:
		return fmt.Sprintf("%gW+%gmm2", b.PeakW, b.AreaMM2)
	case b.PeakW > 0:
		return fmt.Sprintf("%gW", b.PeakW)
	case b.AreaMM2 > 0:
		return fmt.Sprintf("%gmm2", b.AreaMM2)
	default:
		return "unlimited"
	}
}

// Objective selects what the search optimizes.
type Objective uint8

const (
	// ObjMPThroughput maximizes multi-programmed workload throughput.
	ObjMPThroughput Objective = iota
	// ObjMPEDP minimizes multi-programmed energy-delay product.
	ObjMPEDP
	// ObjSTPerf maximizes single-thread performance with free migration
	// across the four cores.
	ObjSTPerf
	// ObjSTEDP minimizes single-thread EDP with free migration.
	ObjSTEDP
)

// SingleThread reports whether the objective powers one core at a time.
func (o Objective) SingleThread() bool { return o == ObjSTPerf || o == ObjSTEDP }

// CMP is a four-core multicore design.
type CMP struct {
	Cores [4]*Candidate
	// Score is the objective value (higher is better; EDP objectives
	// store the negated normalized EDP).
	Score float64
}

// TotalPeak and TotalArea sum the cores.
func (c CMP) TotalPeak() float64 {
	s := 0.0
	for _, core := range c.Cores {
		s += core.PeakW
	}
	return s
}

func (c CMP) TotalArea() float64 {
	s := 0.0
	for _, core := range c.Cores {
		s += core.AreaMM2
	}
	return s
}

// suiteIndex caches the benchmark/region structure used by the schedulers.
// It is immutable after construction, so concurrent climbs share it.
type suiteIndex struct {
	benchRegions [][]int     // per benchmark: flattened region indices
	weights      [][]float64 // per benchmark: region weights
	mixes        [][4]int    // all 4-benchmark combinations
	perms        [][4]int    // all assignments of 4 threads to 4 cores
	// steps is the multi-programmed schedule: one entry per (mix, phase
	// step), holding the region each of the four threads runs. Mix m owns
	// steps[mixStart[m]:mixStart[m+1]].
	steps    [][4]int32
	mixStart []int
	nRegions int // length of the suite; regions are indexed 0..nRegions-1
	// stSkip reports whether every region weight is finite and >= 0, which
	// makes scoreSTSlot monotone in the slot's values: single-thread passes
	// skip dominated trials (see dominators) only then.
	stSkip bool
}

func newSuiteIndex(regions []workload.Region) *suiteIndex {
	si := &suiteIndex{nRegions: len(regions), stSkip: true}
	byBench := map[string]int{}
	for i, r := range regions {
		if !(r.Weight >= 0 && r.Weight <= math.MaxFloat64) {
			si.stSkip = false
		}
		bi, ok := byBench[r.Benchmark]
		if !ok {
			bi = len(si.benchRegions)
			byBench[r.Benchmark] = bi
			si.benchRegions = append(si.benchRegions, nil)
			si.weights = append(si.weights, nil)
		}
		si.benchRegions[bi] = append(si.benchRegions[bi], i)
		si.weights[bi] = append(si.weights[bi], r.Weight)
	}
	nb := len(si.benchRegions)
	for a := 0; a < nb; a++ {
		for b := a + 1; b < nb; b++ {
			for c := b + 1; c < nb; c++ {
				for d := c + 1; d < nb; d++ {
					si.mixes = append(si.mixes, [4]int{a, b, c, d})
				}
			}
		}
	}
	// A suite with fewer than four benchmarks (shrunk suites in tests,
	// partial workloads) has no 4-distinct mixes; fall back to mixes with
	// repetition so multi-programmed scores stay defined instead of 0/0.
	if len(si.mixes) == 0 && nb > 0 {
		for a := 0; a < nb; a++ {
			for b := a; b < nb; b++ {
				for c := b; c < nb; c++ {
					for d := c; d < nb; d++ {
						si.mixes = append(si.mixes, [4]int{a, b, c, d})
					}
				}
			}
		}
	}
	var permute func(rest []int, cur []int)
	permute = func(rest, cur []int) {
		if len(rest) == 0 {
			var p [4]int
			copy(p[:], cur)
			si.perms = append(si.perms, p)
			return
		}
		for i := range rest {
			nr := append(append([]int{}, rest[:i]...), rest[i+1:]...)
			permute(nr, append(cur, rest[i]))
		}
	}
	permute([]int{0, 1, 2, 3}, nil)
	// Each mix runs until its longest benchmark has visited every region;
	// shorter benchmarks wrap around.
	si.mixStart = make([]int, len(si.mixes)+1)
	for m, mix := range si.mixes {
		maxLen := 0
		for _, b := range mix {
			maxLen = max(maxLen, len(si.benchRegions[b]))
		}
		si.mixStart[m+1] = si.mixStart[m] + maxLen
	}
	si.steps = make([][4]int32, si.mixStart[len(si.mixes)])
	for m, mix := range si.mixes {
		for t := range si.steps[si.mixStart[m]:si.mixStart[m+1]] {
			for i, b := range mix {
				rs := si.benchRegions[b]
				si.steps[si.mixStart[m]+t][i] = int32(rs[t%len(rs)])
			}
		}
	}
	return si
}

// mpValues returns a core's per-region multi-programmed values and the
// sign that makes higher better: speedups, or normalized EDPs negated.
// Multiplying by ±1 is exact, and a-b == a+(-b), so sums of signed values
// equal the subtracting sums bit for bit.
func mpValues(c *Candidate, edp bool) ([]float64, float64) {
	if edp {
		return c.NormEDP, -1
	}
	return c.Speedup, 1
}

// permTree enumerates the 24 thread-to-core permutations as a prefix tree:
// each entry assigns cores p0 and p1 to threads 0 and 1, and threads 2 and
// 3 take the remaining cores a and b in either order. Indexing with &3
// lets the compiler drop the bounds checks.
var permTree = [12][4]uint8{
	{0, 1, 2, 3}, {0, 2, 1, 3}, {0, 3, 1, 2},
	{1, 0, 2, 3}, {1, 2, 0, 3}, {1, 3, 0, 2},
	{2, 0, 1, 3}, {2, 1, 0, 3}, {2, 3, 0, 1},
	{3, 0, 1, 2}, {3, 1, 0, 2}, {3, 2, 0, 1},
}

// scoreMP evaluates a 4-core CMP on the multi-programmed scheduler: every
// 4-benchmark mix runs with per-phase-step optimal thread-to-core
// assignment (24 permutations), exactly the contention model of Section VI.
// Each permutation sums its four threads in thread order, ((t0+t1)+t2)+t3,
// so the score does not depend on the enumeration order; a step whose
// permutations are all NaN scores -Inf.
func (si *suiteIndex) scoreMP(cores *[4]*Candidate, edp bool) float64 {
	var src [4][]float64
	var sign float64
	for k, c := range cores {
		src[k], sign = mpValues(c, edp)
	}
	uniform := cores[0] == cores[1] && cores[1] == cores[2] && cores[2] == cores[3]
	total := 0.0
	for i := range si.steps {
		ph := &si.steps[i]
		var best float64
		if uniform {
			// Every permutation sums the same four values in the same order.
			v := src[0]
			best = sign*v[ph[0]] + sign*v[ph[1]] + sign*v[ph[2]] + sign*v[ph[3]]
			if !(best > math.Inf(-1)) {
				best = math.Inf(-1)
			}
		} else {
			var m [4][4]float64 // m[thread][core]
			for th, r := range ph {
				m[th] = [4]float64{sign * src[0][r], sign * src[1][r], sign * src[2][r], sign * src[3][r]}
			}
			best = math.Inf(-1)
			for j := range permTree {
				p := &permTree[j]
				s := m[0][p[0]&3] + m[1][p[1]&3]
				if v := s + m[2][p[2]&3] + m[3][p[3]&3]; v > best {
					best = v
				}
				if v := s + m[2][p[3]&3] + m[3][p[2]&3]; v > best {
					best = v
				}
			}
		}
		total += best / 4
	}
	return total / float64(len(si.steps))
}

// screenTol bounds how far screenMP, and the O(1) bound ahead of it, may
// fall below scoreMP. Let V bound |value| over the cores and n =
// len(steps), with unit roundoff u = 2^-53. Per step, both screen and
// exact take the maximum over the same 24 real four-term sums, each
// computed by recursive summation (the screen as ((x+y)+z)+w over rest's
// three terms and the candidate's), so each computed sum is within γ3·4V
// of its real value and the two maxima differ by at most 8γ3·V; after the
// exact /4 (the screen scales its total instead, which rounds
// identically), 2γ3·V. Accumulating n such terms errs by at most
// γ(n-1)·nV on each side, and the final /n adds a relative u to each.
// Altogether each side is within (n+4)·u·V of its real value, and
// |screen − exact| ≤ (2n+8)·u·V.
//
// The bound: per step, max_th(v[th] + rest[th]) ≤ max_th v[th] + max_th
// rest[th], so (R + stepMax)/4n is at least the real exact score, where
// R = Σ_i max_th rest[i][th] (restTable) and stepMax = Σ_i max_th
// v[ph_i[th]] (stepMax). Its own rounding: each rest entry is within
// γ2·3V of its real value; R sums n terms bounded by 3V and stepMax n
// terms bounded by V, erring by at most γ(n-1)·3nV and γ(n-1)·nV; R +
// stepMax and the /4n round once each. After the /4n that is at most
// (n+3)·u·V, inside the same (n+4)·u·V per side, so the computed bound
// too is at least exact − (2n+8)·u·V.
//
// Setting the rejection threshold screenTol below the exact acceptance
// threshold therefore never discards an accepted trial, by bound or by
// screen, as long as twice (2n+8)·u·V stays below screenTol (the other
// half absorbs the rounding of the threshold itself); screenSound checks
// this per search. On the suite (n = 520 steps, speedups below 2,
// normalized EDPs below 130) (2n+8)·u·V is at most 2.4e-13 for throughput
// and 1.5e-11 for EDP, and the bound's own term at most 1.2e-13 and
// 7.6e-12, all well inside 1e-9.
const screenTol = 1e-9

// screenSound reports whether screening is exact enough for a search over
// cs: every value finite and the screenTol bound met for both the screen
// and the O(1) bound. Otherwise the search scores every trial exactly.
func (si *suiteIndex) screenSound(cs []*Candidate, edp bool) bool {
	if len(si.steps) == 0 {
		return false
	}
	vmax := 0.0
	for _, c := range cs {
		vals, _ := mpValues(c, edp)
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
			vmax = math.Max(vmax, math.Abs(v))
		}
	}
	const u = 0x1p-53
	// scoreMP, screenMP and the bound are each within side of their real
	// values, so screen and bound are each within 2·side of the exact score.
	side := (float64(len(si.steps)) + 4) * u * vmax
	return 2*(2*side) <= screenTol
}

// otherThreads lists, per thread, the three other threads.
var otherThreads = [4][3]uint8{{1, 2, 3}, {0, 2, 3}, {0, 1, 3}, {0, 1, 2}}

// restTable fills rest[i][th] with the best summed value, at step i, of
// the three threads other than th on the three cores other than slot: the
// part of a trial's step score that does not depend on the core in slot.
// It returns R = Σ_i max_th rest[i][th], the table's half of the O(1)
// bound (see screenTol). Only screened searches build it, so every value
// is finite.
func (si *suiteIndex) restTable(cores *[4]*Candidate, slot int, edp bool, rest [][4]float64) float64 {
	var src [3][]float64
	var sign float64
	n := 0
	for k, c := range cores {
		if k != slot {
			src[n], sign = mpValues(c, edp)
			n++
		}
	}
	total := 0.0
	for i := range si.steps {
		ph := &si.steps[i]
		var m [4][3]float64 // m[thread][other core]
		for th, r := range ph {
			m[th] = [3]float64{sign * src[0][r], sign * src[1][r], sign * src[2][r]}
		}
		row := &rest[i]
		for th, o := range otherThreads {
			a, b, c := &m[o[0]&3], &m[o[1]&3], &m[o[2]&3]
			row[th] = max(a[0]+b[1]+c[2], a[0]+b[2]+c[1], a[1]+b[0]+c[2],
				a[1]+b[2]+c[0], a[2]+b[0]+c[1], a[2]+b[1]+c[0])
		}
		total += max(row[0], row[1], row[2], row[3])
	}
	return total
}

// stepMax returns Σ_i max_th v[ph_i[th]] over c's signed values: the
// candidate's half of the O(1) bound (see screenTol).
func (si *suiteIndex) stepMax(c *Candidate, edp bool) float64 {
	v, sign := mpValues(c, edp)
	total := 0.0
	for i := range si.steps {
		ph := &si.steps[i]
		total += max(sign*v[ph[0]], sign*v[ph[1]], sign*v[ph[2]], sign*v[ph[3]])
	}
	return total
}

// stepMaxes is stepMax of every candidate in cs, in order, computed on the
// par pool. A cancelled computation returns ctx's error.
func (si *suiteIndex) stepMaxes(ctx context.Context, cs []*Candidate, edp bool) ([]float64, error) {
	out := make([]float64, len(cs))
	if err := forChunks(ctx, len(cs), func(i int) { out[i] = si.stepMax(cs[i], edp) }); err != nil {
		return nil, err
	}
	return out, nil
}

// chunkLen is how many consecutive indices one par task of forChunks runs.
const chunkLen = 32

// forChunks runs fn(i) for every i in [0, n) on the par pool, chunkLen
// indices per task. fn must not depend on the other indices' calls.
func forChunks(ctx context.Context, n int, fn func(i int)) error {
	return par.ForEach(ctx, (n+chunkLen-1)/chunkLen, 0, func(c int) error {
		for i := c * chunkLen; i < min(n, (c+1)*chunkLen); i++ {
			fn(i)
		}
		return nil
	})
}

// mpBound is the O(1) upper bound on the screen (and, within rounding, on
// the exact score) of the trial that puts a candidate with stepMax sm in
// the slot whose restTable returned r.
func (si *suiteIndex) mpBound(r, sm float64) float64 {
	return (r + sm) / float64(4*len(si.steps))
}

// screenMP estimates scoreMP for the trial that puts c in the slot rest
// was built for: per step, the best thread to run on c plus the best
// assignment of the others. It equals the exact score up to rounding (see
// screenTol), at 4 loads, 4 adds and one branchless max per step. The max
// is exact here: screened searches hold only finite values (screenSound),
// and where max picks a different zero of a ±0 tie than compares would,
// the sum, which starts at +0, cannot tell.
func (si *suiteIndex) screenMP(c *Candidate, edp bool, rest [][4]float64) float64 {
	v, sign := mpValues(c, edp)
	rest = rest[:len(si.steps)]
	total := 0.0
	for i := range si.steps {
		ph, r := &si.steps[i], &rest[i]
		total += max(sign*v[ph[0]]+r[0], sign*v[ph[1]]+r[1],
			sign*v[ph[2]]+r[2], sign*v[ph[3]]+r[3])
	}
	return total / 4 / float64(len(si.steps))
}

// scoreST evaluates single-thread objectives: each benchmark migrates every
// region to its best core (SimPoint weights applied). It is the slot
// scorer with cores 0-2 as the rest and core 3 in the slot, which compares
// the four cores in exactly the order of a walk over all of them.
func (si *suiteIndex) scoreST(cores *[4]*Candidate, edp bool) float64 {
	restBest := make([]float64, si.nRegions)
	si.stRestBest(cores, 3, edp, restBest)
	return si.scoreSTSlot(cores[3], edp, restBest)
}

// stRestBest fills restBest[r] with the best single-thread value at region
// r over the cores other than slot, compared in core order with v > best
// from -Inf, so NaN never wins: the part of a trial's ST score that does
// not depend on the core in slot.
func (si *suiteIndex) stRestBest(cores *[4]*Candidate, slot int, edp bool, restBest []float64) {
	for r := range restBest {
		restBest[r] = math.Inf(-1)
	}
	for k, c := range cores {
		if k == slot {
			continue
		}
		v, sign := mpValues(c, edp)
		for r := range restBest {
			if x := sign * v[r]; x > restBest[r] {
				restBest[r] = x
			}
		}
	}
}

// scoreSTSlot scores the single-thread trial that puts c in the slot
// restBest was built for, at one compare per region. Comparing the slot
// last instead of in core order can only pick a different zero of a ±0
// tie, and that cannot change a weighted sum that starts at +0, so the
// score equals scoreST of the full trial bit for bit.
func (si *suiteIndex) scoreSTSlot(c *Candidate, edp bool, restBest []float64) float64 {
	v, sign := mpValues(c, edp)
	total := 0.0
	for b, rs := range si.benchRegions {
		bs := 0.0
		for k, r := range rs {
			best := restBest[r]
			if x := sign * v[r]; x > best {
				best = x
			}
			bs += si.weights[b][k] * best
		}
		total += bs
	}
	return total / float64(len(si.benchRegions))
}

// dominators returns, for each entry j of cs, the cheapest earlier entry k
// whose signed values (mpValues) are at least j's at every region, or -1
// when there is none. Cheapest is the lowest PeakW + AreaMM2/10, ties going
// to the lower index. An entry with a non-finite value neither dominates
// nor is dominated. Every scorer is monotone in the slot's values (see the
// skip in searchCounted), so a trial that puts j in a slot never scores
// above the trial that puts k there. No entry's result reads another's, so
// the entries are filled on the par pool; a cancelled computation returns
// ctx's error.
func dominators(ctx context.Context, cs []*Candidate, edp bool) ([]int32, error) {
	finite := make([]bool, len(cs))
	for i, c := range cs {
		v, _ := mpValues(c, edp)
		finite[i] = !slices.ContainsFunc(v, func(x float64) bool { return math.IsNaN(x) || math.IsInf(x, 0) })
	}
	cost := func(k int32) float64 { return cs[k].PeakW + cs[k].AreaMM2/10 }
	dom := make([]int32, len(cs))
	err := forChunks(ctx, len(cs), func(j int) {
		dom[j] = -1
		if !finite[j] {
			return
		}
		vj, sign := mpValues(cs[j], edp)
	next:
		for k := range int32(j) {
			if !finite[k] || dom[j] >= 0 && !(cost(k) < cost(dom[j])) {
				continue
			}
			vk, _ := mpValues(cs[k], edp)
			for r, x := range vj {
				if !(sign*vk[r] >= sign*x) {
					continue next
				}
			}
			dom[j] = k
		}
	})
	if err != nil {
		return nil, err
	}
	return dom, nil
}

func (si *suiteIndex) score(cores *[4]*Candidate, obj Objective) float64 {
	switch obj {
	case ObjMPThroughput:
		return si.scoreMP(cores, false)
	case ObjMPEDP:
		return si.scoreMP(cores, true)
	case ObjSTPerf:
		return si.scoreST(cores, false)
	default:
		return si.scoreST(cores, true)
	}
}

// feasible checks a full CMP against the budget.
func feasible(cores *[4]*Candidate, b Budget, st bool) bool {
	peak, area := 0.0, 0.0
	for _, c := range cores {
		if st {
			if b.PeakW > 0 && c.PeakW > b.PeakW {
				return false
			}
		} else {
			peak += c.PeakW
		}
		area += c.AreaMM2
	}
	if !st && b.PeakW > 0 && peak > b.PeakW {
		return false
	}
	if b.AreaMM2 > 0 && area > b.AreaMM2 {
		return false
	}
	return true
}

// SearchSpec describes one multicore search.
type SearchSpec struct {
	Candidates  []*Candidate
	Budget      Budget
	Objective   Objective
	Homogeneous bool // all four cores must be identical
	// MaxCandidates caps the pruned candidate set fed to hill climbing.
	MaxCandidates int
	// Constraint optionally rejects candidates (Figure 9's
	// feature-constrained searches).
	Constraint func(*Candidate) bool
}

// survivors returns, in order, the candidates that pass spec's constraint
// and budget filter: spec.Candidates itself when all of them do, so a
// front built from them retains no copy.
func survivors(spec SearchSpec) []*Candidate {
	var ok []*Candidate
	for _, c := range spec.Candidates {
		if spec.Constraint != nil && !spec.Constraint(c) {
			continue
		}
		if spec.Budget.PeakW > 0 && c.PeakW > spec.Budget.PeakW {
			continue
		}
		if spec.Budget.AreaMM2 > 0 && c.AreaMM2 > spec.Budget.AreaMM2 {
			continue
		}
		ok = append(ok, c)
	}
	if len(ok) == len(spec.Candidates) {
		return spec.Candidates
	}
	return ok
}

// prune builds the front of a search from its non-empty survivors,
// filtered: they are ranked by objective-relevant utility and capped at
// maxCands (0 = 300), always keeping each region's top specialists so
// heterogeneity stays discoverable. It reads the objective only through edp
// and never modifies filtered. A cancelled prune returns ctx's error and no
// front.
func prune(ctx context.Context, filtered []*Candidate, edp bool, maxCands int) (*front, error) {
	// ISA keys, formatted once per distinct choice and shared by both
	// per-ISA passes and the front.
	keys := map[ISAChoice]string{}
	isaKey := func(c *Candidate) string {
		k, found := keys[c.DP.ISA]
		if !found {
			k = c.DP.ISA.Key()
			keys[c.DP.ISA] = k
		}
		return k
	}
	if maxCands <= 0 {
		maxCands = 300
	}
	utility := func(c *Candidate) float64 {
		if edp {
			s := 0.0
			for _, v := range c.NormEDP {
				s += v
			}
			return -s
		}
		return c.MeanSpeedup()
	}
	ok := append([]*Candidate{}, filtered...)
	sortByKeyDesc(ok, utility)
	keep := map[*Candidate]bool{}
	for i := 0; i < len(ok) && i < maxCands*3/4; i++ {
		keep[ok[i]] = true
	}
	// Per-ISA heads: every feature set keeps its best configurations so a
	// globally mediocre ISA can still contribute its specialist cores.
	perISA := map[string]int{}
	for _, c := range ok {
		k := isaKey(c)
		if perISA[k] < 8 {
			keep[c] = true
			perISA[k]++
		}
	}
	// Keep the smallest/coolest cores so tight budgets always have a
	// feasible homogeneous seed and cheap filler cores.
	keepTop := func(key func(*Candidate) float64, n int) {
		s := append([]*Candidate{}, ok...)
		sortByKeyDesc(s, key)
		for i := 0; i < len(s) && i < n; i++ {
			keep[s[i]] = true
		}
	}
	keepTop(func(c *Candidate) float64 { return -c.AreaMM2 }, 25)
	keepTop(func(c *Candidate) float64 { return -c.PeakW }, 25)
	// Efficiency ranks: under power/area budgets the best building blocks
	// maximize value per watt / per mm², not raw value. For speedup
	// objectives that is utility/cost; for (negative-valued) EDP
	// objectives it is utility*cost, which prefers low EDP at low cost.
	eff := func(c *Candidate, cost float64) float64 {
		if edp {
			return utility(c) * cost
		}
		return utility(c) / cost
	}
	effPeak := func(c *Candidate) float64 { return eff(c, c.PeakW) }
	keepTop(effPeak, 80)
	keepTop(func(c *Candidate) float64 { return eff(c, c.AreaMM2) }, 80)
	// Per-ISA efficiency heads, mirroring the per-ISA utility heads.
	perISAEff := map[string]int{}
	byEff := append([]*Candidate{}, ok...)
	sortByKeyDesc(byEff, effPeak)
	for _, c := range byEff {
		k := isaKey(c)
		if perISAEff[k] < 6 {
			keep[c] = true
			perISAEff[k]++
		}
	}
	// Region specialists: best 3 per region per criterion. The regions are
	// sorted on the par pool, each worker taking every w-th region with one
	// scratch; every sort starts from ok's order and the kept set is a
	// union, so it does not depend on the schedule.
	nRegions := len(ok[0].Speedup)
	w := min(par.DefaultLimit(), nRegions)
	tops := make([][3]*Candidate, nRegions)
	err := par.ForEach(ctx, w, 0, func(t int) error {
		per := make([]keyed, len(ok))
		for r := t; r < nRegions; r += w {
			// par checks ctx before the task's first region, so each
			// region is checked once.
			if r != t {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			for i, c := range ok {
				v := c.Speedup[r]
				if edp {
					v = -c.NormEDP[r]
				}
				per[i] = keyed{c, v}
			}
			sortKeyedDesc(per)
			for i := 0; i < len(tops[r]) && i < len(per); i++ {
				tops[r][i] = per[i].c
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, top := range tops {
		for _, c := range top {
			if c != nil {
				keep[c] = true
			}
		}
	}
	// The union of the utility head, the specialists, and the small cores
	// is the search set; specialists must survive, so no further cap.
	f := &front{survivors: filtered, edp: edp}
	for _, c := range ok {
		if keep[c] {
			f.cands = append(f.cands, c)
			f.isaKeys = append(f.isaKeys, isaKey(c))
		}
	}
	return f, nil
}

// front is the part of a search that depends only on which candidates
// survive its filter, not on the budget that filtered them: the pruned
// pool and each pool entry's ISA key, and, filled in on first use, the
// pool's homogeneous scores per objective, its stepMax and its dominators.
// prune is a pure function of the ordered survivors, edp and the candidate
// cap, hom[obj] of each candidate and obj, stepMax of each candidate and
// edp, and dom of the pool and edp, all over one suite, so every search
// with the same survivors, edp and cap may share one front, bit for bit.
// Fronts are shared, so they are read-only: a search that extends the pool
// copies it.
type front struct {
	survivors []*Candidate // the filter's output the front was built from
	edp       bool
	cands     []*Candidate // the pruned pool, in utility order
	isaKeys   []string     // isaKeys[i] is cands[i].DP.ISA.Key()

	mu      sync.Mutex   // guards hom, stepMax and dom
	hom     [4][]float64 // per Objective: each pool entry's homogeneous score
	stepMax []float64    // each pool entry's stepMax under edp
	dom     []int32      // dominators(cands, edp)
}

// fill returns *p, storing v there first if *p is still nil. The first
// store wins; values are deterministic, so either copy is correct.
func (f *front) fill(p *[]float64, v []float64) []float64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	if *p == nil {
		*p = v
	}
	return *p
}

// loaded returns *p under the front's lock.
func (f *front) loaded(p *[]float64) []float64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return *p
}

// homScores returns every pool entry's homogeneous score under obj,
// computing them on the front's first search with obj. A cancelled
// computation returns ctx's error and stores nothing.
func (f *front) homScores(ctx context.Context, si *suiteIndex, obj Objective) ([]float64, error) {
	if h := f.loaded(&f.hom[obj]); h != nil {
		return h, nil
	}
	h := make([]float64, len(f.cands))
	for i, c := range f.cands {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		h[i] = si.score(&[4]*Candidate{c, c, c, c}, obj)
	}
	return f.fill(&f.hom[obj], h), nil
}

// stepMaxes returns every pool entry's stepMax under the front's edp,
// computing them on the front's first screened search. A cancelled
// computation returns ctx's error and stores nothing.
func (f *front) stepMaxes(ctx context.Context, si *suiteIndex) ([]float64, error) {
	if sm := f.loaded(&f.stepMax); sm != nil {
		return sm, nil
	}
	sm, err := si.stepMaxes(ctx, f.cands, f.edp)
	if err != nil {
		return nil, err
	}
	return f.fill(&f.stepMax, sm), nil
}

// dominators returns dominators(f.cands, f.edp), computing it, under the
// front's lock, on the front's first search that skips dominated trials.
// A cancelled computation returns ctx's error and stores nothing.
func (f *front) dominators(ctx context.Context) ([]int32, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.dom == nil {
		dom, err := dominators(ctx, f.cands, f.edp)
		if err != nil {
			return nil, err
		}
		f.dom = dom
	}
	return f.dom, nil
}

// frontKey buckets the stored fronts; within a bucket a front is found by
// comparing its survivors in full.
type frontKey struct {
	edp      bool
	maxCands int
	n        int
	first    *Candidate
}

// soundKey identifies a candidate slice by its backing array and length,
// with the objective's edp.
type soundKey struct {
	cs  **Candidate
	n   int
	edp bool
}

// frontMemo holds the fronts, and the screenSound verdicts, of the
// searches run over one suite. A front is stored only once fully built, so
// a search cancelled while building one leaves nothing behind. Its size is
// bounded by the number of distinct (survivors, edp, cap) and (candidate
// slice, edp) searched.
type frontMemo struct {
	mu     sync.Mutex
	fronts map[frontKey][]*front
	sound  par.Memo[soundKey, bool]
	hits   atomic.Int64 // fronts returned by an earlier search's build
}

func newFrontMemo() *frontMemo {
	return &frontMemo{fronts: map[frontKey][]*front{}}
}

// lookup returns the front stored under k that was built from ok, or nil.
// The caller holds m.mu.
func (m *frontMemo) lookup(k frontKey, ok []*Candidate) *front {
	for _, f := range m.fronts[k] {
		if slices.Equal(f.survivors, ok) {
			return f
		}
	}
	return nil
}

// front returns the front of a search whose non-empty filter kept ok,
// building it with prune unless an earlier search stored it. Concurrent
// builds of one front are allowed; the first store wins.
func (m *frontMemo) front(ctx context.Context, ok []*Candidate, edp bool, maxCands int) (*front, error) {
	k := frontKey{edp: edp, maxCands: maxCands, n: len(ok), first: ok[0]}
	m.mu.Lock()
	f := m.lookup(k, ok)
	m.mu.Unlock()
	if f != nil {
		m.hits.Add(1)
		return f, nil
	}
	f, err := prune(ctx, ok, edp, maxCands)
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if g := m.lookup(k, ok); g != nil {
		return g, nil
	}
	m.fronts[k] = append(m.fronts[k], f)
	return f, nil
}

// screenSound is si.screenSound(cs, edp), computed once per non-empty
// candidate slice and edp. Candidate slices are never modified once built,
// and the key's pointer into cs keeps its backing array from being reused.
// A caller whose ctx ends while it waits gets false: its search is being
// cut short anyway.
func (m *frontMemo) screenSound(ctx context.Context, si *suiteIndex, cs []*Candidate, edp bool) bool {
	k := soundKey{cs: &cs[0], n: len(cs), edp: edp}
	v, _, err := m.sound.Do(ctx, k, func() (bool, error) { return si.screenSound(cs, edp), nil })
	return err == nil && v
}

// descending is a slices.SortFunc comparison that orders a before b iff
// a > b. SortFunc and sort.Slice run the same pdqsort (both are generated
// from one template) and SortFunc only ever asks cmp(a, b) < 0, so sorting
// with descending makes exactly the comparisons and swaps of sort.Slice
// with less(i, j) = x[i] > x[j], and ties land where they did.
func descending(a, b float64) int {
	if a > b {
		return -1
	}
	return 0
}

// keyed pairs a candidate with its sort key.
type keyed struct {
	c *Candidate
	k float64
}

// sortKeyedDesc sorts ks by descending key, in exactly the order of
// sort.Slice with ks[i].k > ks[j].k (see descending), ties included.
func sortKeyedDesc(ks []keyed) {
	slices.SortFunc(ks, func(a, b keyed) int { return descending(a.k, b.k) })
}

// sortByKeyDesc sorts cs by descending key, computing each candidate's key
// once instead of in every comparison. The comparisons, and so the order,
// are exactly those of sort.Slice with key(a) > key(b); an ascending sort
// negates its key, which compares identically for every float64.
func sortByKeyDesc(cs []*Candidate, key func(*Candidate) float64) {
	ks := make([]keyed, len(cs))
	for i, c := range cs {
		ks[i] = keyed{c, key(c)}
	}
	sortKeyedDesc(ks)
	for i := range ks {
		cs[i] = ks[i].c
	}
}

// climbPool is a candidate pool a climb draws replacements from, with the
// stepMax of each entry when screening and, when skipping dominated trials,
// the dominator of each entry dom covers (the others have none). Its
// address identifies it in the pass memo.
type climbPool struct {
	cands   []*Candidate
	stepMax []float64
	dom     []int32
}

// passKey identifies one slot pass of a climb: the climb point's ordered
// cores and the bits of its score, the slot, and the pool. The pass's
// result is a pure function of the key: its acceptance floor is the score
// (plus the fixed epsilon and screenTol), its rest table or rest-best is
// built from the cores, and it walks the pool in a fixed order. With the
// score in the key this holds whatever path scored the climb point.
type passKey struct {
	cores [4]*Candidate
	score uint64
	slot  int
	pool  *climbPool
}

// Search finds a (locally) optimal 4-core CMP by steepest-ascent hill
// climbing over single-core replacements — the paper likewise reports local
// optima to keep its 102.5-trillion-combination search tractable.
// Cancellation of ctx aborts the climb promptly (the check sits inside the
// per-candidate scoring loops) and returns ctx.Err().
func Search(ctx context.Context, spec SearchSpec, regions []workload.Region) (CMP, error) {
	cmp, _, _, err := search(ctx, spec, regions)
	return cmp, err
}

// search is Search that also reports how many slot passes its climbs
// scanned and how many they took from the pass memo instead.
func search(ctx context.Context, spec SearchSpec, regions []workload.Region) (cmp CMP, passesRun, passesReused int64, err error) {
	return searchWith(ctx, spec, newSuiteIndex(regions), newFrontMemo())
}

// searchWith is search over the suite si, taking the search's front from
// fronts. Only the front is shared: the seeding, climbs, pass memo and
// polish pass are the search's own.
func searchWith(ctx context.Context, spec SearchSpec, si *suiteIndex, fronts *frontMemo) (cmp CMP, passesRun, passesReused int64, err error) {
	cmp, n, err := searchCounted(ctx, spec, si, fronts)
	return cmp, n.passesRun, n.passesReused, err
}

// searchCounts is the work of one search's climbs: the slot passes they
// scanned and took from the pass memo, and, over the scanned passes, the
// feasible trials skipped as dominated, screened (screenMP) and scored
// exactly (scoreMP or scoreSTSlot).
type searchCounts struct {
	passesRun, passesReused  int64
	skipped, screened, exact int64
}

// searchCounted is searchWith that also counts its climbs' trials.
func searchCounted(ctx context.Context, spec SearchSpec, si *suiteIndex, fronts *frontMemo) (CMP, searchCounts, error) {
	ok := survivors(spec)
	if len(ok) == 0 {
		return CMP{}, searchCounts{}, fmt.Errorf("explore: no feasible candidates under %s", spec.Budget)
	}
	st := spec.Objective.SingleThread()
	edp := spec.Objective == ObjMPEDP || spec.Objective == ObjSTEDP
	fr, err := fronts.front(ctx, ok, edp, spec.MaxCandidates)
	if err != nil {
		return CMP{}, searchCounts{}, err
	}
	cands := fr.cands

	// Every candidate's homogeneous score, once: it does not depend on the
	// budget, and the seed searches below revisit it at several budgets.
	hom, err := fr.homScores(ctx, si, spec.Objective)
	if err != nil {
		return CMP{}, searchCounts{}, err
	}

	// Seeds: the best feasible homogeneous CMP at the full budget and at
	// reduced budgets. A full-budget homogeneous seed saturates the
	// constraint, leaving hill climbing no slack to upgrade any single
	// core; seeds with headroom escape that local optimum.
	bestHomogeneous := func(b Budget) (CMP, bool) {
		var best CMP
		found := false
		for i, c := range cands {
			if ctx.Err() != nil {
				return best, found
			}
			cores := [4]*Candidate{c, c, c, c}
			if !feasible(&cores, b, st) {
				continue
			}
			s := hom[i]
			if !found || s > best.Score {
				best = CMP{Cores: cores, Score: s}
				found = true
			}
		}
		return best, found
	}
	seedBudgets := []float64{1.0, 0.85, 0.7, 0.55}
	var seeds []CMP
	for _, frac := range seedBudgets {
		b := spec.Budget
		b.PeakW *= frac
		b.AreaMM2 *= frac
		if s, ok := bestHomogeneous(b); ok {
			seeds = append(seeds, s)
		}
	}
	// Maximum-slack seed: four copies of the cheapest core, so the climb
	// can grow a heterogeneous design bottom-up even when the budget
	// admits no slack around the best homogeneous design.
	cheapest := 0
	for i, c := range cands {
		if c.PeakW+c.AreaMM2/10 < cands[cheapest].PeakW+cands[cheapest].AreaMM2/10 {
			cheapest = i
		}
	}
	cheap := cands[cheapest]
	cheapCores := [4]*Candidate{cheap, cheap, cheap, cheap}
	if feasible(&cheapCores, spec.Budget, st) {
		seeds = append(seeds, CMP{Cores: cheapCores, Score: hom[cheapest]})
	}
	// Per-ISA homogeneous seeds: the best feasible 4x design of each of
	// the strongest ISA choices, so pairwise ISA mixes are reachable.
	{
		type isaSeed struct {
			cmp   CMP
			score float64
		}
		bestPer := map[string]isaSeed{}
		for i, c := range cands {
			if ctx.Err() != nil {
				break
			}
			cores := [4]*Candidate{c, c, c, c}
			if !feasible(&cores, spec.Budget, st) {
				continue
			}
			s := hom[i]
			k := fr.isaKeys[i]
			if cur, ok := bestPer[k]; !ok || s > cur.score {
				bestPer[k] = isaSeed{CMP{Cores: cores, Score: s}, s}
			}
		}
		var list []isaSeed
		for _, v := range bestPer {
			list = append(list, v)
		}
		slices.SortFunc(list, func(a, b isaSeed) int { return descending(a.score, b.score) })
		for i := 0; i < len(list) && i < 6; i++ {
			seeds = append(seeds, list[i].cmp)
		}
		// 2+2 ISA-pair seeds among the strongest per-ISA designs, so
		// two-ISA mixes are directly reachable under tight budgets.
		top := len(list)
		if top > 5 {
			top = 5
		}
		for i := 0; i < top; i++ {
			for j := i + 1; j < top; j++ {
				cores := [4]*Candidate{list[i].cmp.Cores[0], list[i].cmp.Cores[0],
					list[j].cmp.Cores[0], list[j].cmp.Cores[0]}
				if feasible(&cores, spec.Budget, st) {
					seeds = append(seeds, CMP{Cores: cores, Score: si.score(&cores, spec.Objective)})
				}
			}
		}
	}
	if len(seeds) == 0 {
		return CMP{}, searchCounts{}, fmt.Errorf("explore: no feasible homogeneous seed under %s", spec.Budget)
	}
	if spec.Homogeneous {
		// Homogeneous organizations take the full-budget seed.
		best, _ := bestHomogeneous(spec.Budget)
		if err := ctx.Err(); err != nil {
			return CMP{}, searchCounts{}, err
		}
		return best, searchCounts{}, nil
	}

	// Multi-programmed climbs reject each trial on the O(1) bound, then
	// skip it when it is dominated (see scan), then reject it on the screen
	// against the rest table of its (climb point, slot), and score exactly
	// only the trials that could clear the acceptance test (see
	// screenTol). Single-thread climbs skip dominated trials and score the
	// others against the best of the other three cores per region.
	screen := !st && fronts.screenSound(ctx, si, spec.Candidates, edp)
	pool := &climbPool{cands: cands}
	if screen {
		if pool.stepMax, err = fr.stepMaxes(ctx, si); err != nil {
			return CMP{}, searchCounts{}, err
		}
	}
	if screen || st && si.stSkip {
		if pool.dom, err = fr.dominators(ctx); err != nil {
			return CMP{}, searchCounts{}, err
		}
	}

	// scan runs one slot pass from cur over pool, using the caller's
	// scratch, and returns the climb point it ends on and the pass's trial
	// counts, or ctx's error when ctx cut it short.
	scan := func(cur CMP, slot int, pool *climbPool, rest [][4]float64, restBest []float64) (CMP, searchCounts, error) {
		best := cur
		var n searchCounts
		var restMax float64
		switch {
		case screen:
			restMax = si.restTable(&cur.Cores, slot, edp, rest)
		case st:
			si.stRestBest(&cur.Cores, slot, edp, restBest)
		}
		// Dominance skip: trial j is never accepted when an earlier pool
		// entry k = dom[j], whose values are at least j's at every region,
		// also makes a feasible trial. Each scorer, the screen and the
		// bound are monotone in the slot's values, and k's trial was
		// scanned earlier in this pass: rejected by the bound or the screen
		// (so j's would be too), scored below the acceptance threshold, or
		// accepted (raising best to at least j's score). See DESIGN.md.
		dominated := func(trial [4]*Candidate, j int) bool {
			if j >= len(pool.dom) || pool.dom[j] < 0 {
				return false
			}
			trial[slot] = pool.cands[pool.dom[j]]
			return feasible(&trial, spec.Budget, st)
		}
		for j, c := range pool.cands {
			if err := ctx.Err(); err != nil {
				return best, n, err
			}
			trial := cur.Cores
			trial[slot] = c
			if !feasible(&trial, spec.Budget, st) {
				continue
			}
			var s float64
			switch {
			case screen:
				floor := best.Score + 1e-12 - screenTol
				if si.mpBound(restMax, pool.stepMax[j]) <= floor {
					continue
				}
				if dominated(trial, j) {
					n.skipped++
					continue
				}
				n.screened++
				if si.screenMP(c, edp, rest) <= floor {
					continue
				}
				n.exact++
				s = si.scoreMP(&trial, edp)
			case st:
				if dominated(trial, j) {
					n.skipped++
					continue
				}
				n.exact++
				s = si.scoreSTSlot(c, edp, restBest)
			default:
				n.exact++
				s = si.scoreMP(&trial, edp)
			}
			if s > best.Score+1e-12 {
				best = CMP{Cores: trial, Score: s}
			}
		}
		return best, n, nil
	}

	// climb hill-climbs one seed over a candidate pool, taking each slot
	// pass from the pass memo, which singleflights the passes of parallel
	// climbs that converge on one climb point; the pool is a parameter so
	// the polish pass below can widen it for one call without mutating
	// shared state. A pass cut short is never kept.
	var passes par.Memo[passKey, CMP]
	var mu sync.Mutex // guards counts
	var counts searchCounts
	climb := func(seed CMP, pool *climbPool) CMP {
		best := seed
		var rest [][4]float64
		var restBest []float64
		switch {
		case screen:
			rest = make([][4]float64, len(si.steps))
		case st:
			restBest = make([]float64, si.nRegions)
		}
		for iter := 0; iter < 12; iter++ {
			improved := false
			for slot := 0; slot < 4; slot++ {
				cur := best
				k := passKey{cores: cur.Cores, score: math.Float64bits(cur.Score), slot: slot, pool: pool}
				end, shared, err := passes.Do(ctx, k, func() (CMP, error) {
					end, n, err := scan(cur, slot, pool, rest, restBest)
					if err == nil {
						mu.Lock()
						counts.passesRun++
						counts.skipped += n.skipped
						counts.screened += n.screened
						counts.exact += n.exact
						mu.Unlock()
					}
					return end, err
				})
				if err != nil {
					return best
				}
				if shared {
					mu.Lock()
					counts.passesReused++
					mu.Unlock()
				}
				// Every accepted trial raises the score, so a pass moved
				// the climb point exactly when it accepted one.
				if end.Cores != cur.Cores || math.Float64bits(end.Score) != k.score {
					improved = true
				}
				best = end
			}
			if !improved {
				break
			}
		}
		return best
	}
	results, err := par.Map(ctx, len(seeds), 0, func(i int) (CMP, error) {
		return climb(seeds[i], pool), nil
	})
	if err != nil {
		return CMP{}, searchCounts{}, err
	}
	if err := ctx.Err(); err != nil {
		return CMP{}, searchCounts{}, err
	}
	var best CMP
	for i, r := range results {
		if i == 0 || r.Score > best.Score {
			best = r
		}
	}
	// Polish pass: re-climb with every configuration of the winning ISAs
	// available, so the final microarchitectures are exactly tuned (the
	// pruned set only carries each ISA's highlights).
	inBest := map[string]bool{}
	for _, c := range best.Cores {
		inBest[c.DP.ISA.Key()] = true
	}
	// The extended pool keeps cands' dominators; the entries added after
	// them have none.
	extended := &climbPool{cands: append([]*Candidate{}, cands...), dom: pool.dom}
	seen := map[*Candidate]bool{}
	for _, c := range cands {
		seen[c] = true
	}
	for _, c := range spec.Candidates {
		if inBest[c.DP.ISA.Key()] && !seen[c] {
			if spec.Constraint == nil || spec.Constraint(c) {
				extended.cands = append(extended.cands, c)
			}
		}
	}
	if screen {
		added, err := si.stepMaxes(ctx, extended.cands[len(cands):], edp)
		if err != nil {
			return CMP{}, searchCounts{}, err
		}
		extended.stepMax = slices.Concat(pool.stepMax, added)
	}
	best = climb(best, extended)
	if err := ctx.Err(); err != nil {
		return CMP{}, searchCounts{}, err
	}

	// Canonical core order for stable output.
	slices.SortFunc(best.Cores[:], func(a, b *Candidate) int { return descending(b.PeakW, a.PeakW) })
	return best, counts, nil
}
