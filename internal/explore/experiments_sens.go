package explore

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"compisa/internal/eval"
	"compisa/internal/isa"
	"compisa/internal/par"
	"compisa/internal/power"
	"compisa/internal/workload"
)

// FeatureConstraint is one Figure 9 search restriction.
type FeatureConstraint struct {
	Name string
	Keep func(*Candidate) bool
}

// Fig9Constraints enumerates the feature-sensitivity searches: register
// depth caps, single-width, single-complexity, and single-predication
// restrictions (plus the unconstrained search).
func Fig9Constraints() []FeatureConstraint {
	depthCap := func(d int) FeatureConstraint {
		return FeatureConstraint{
			Name: fmt.Sprintf("depth<=%d", d),
			Keep: func(c *Candidate) bool { return c.DP.ISA.FS.Depth <= d },
		}
	}
	return []FeatureConstraint{
		depthCap(8), depthCap(16), depthCap(32), depthCap(64),
		{"microx86 only", func(c *Candidate) bool { return c.DP.ISA.FS.Complexity == isa.MicroX86 }},
		{"x86 only", func(c *Candidate) bool { return c.DP.ISA.FS.Complexity == isa.FullX86 }},
		{"32-bit only", func(c *Candidate) bool { return c.DP.ISA.FS.Width == 32 }},
		{"64-bit only", func(c *Candidate) bool { return c.DP.ISA.FS.Width == 64 }},
		{"partial pred only", func(c *Candidate) bool { return c.DP.ISA.FS.Predication == isa.PartialPredication }},
		{"full pred only", func(c *Candidate) bool { return c.DP.ISA.FS.Predication == isa.FullPredication }},
	}
}

// Fig9Row is one constrained search's outcome.
type Fig9Row struct {
	Constraint     string
	CMP            CMP
	Score          float64
	DegradationPct float64 // vs the unconstrained composite design
}

// Fig9Result reproduces Figure 9 (and feeds Figures 10/11 with the ten
// constrained-optimal designs).
type Fig9Result struct {
	Budget        Budget
	Unconstrained CMP
	Rows          []Fig9Row
}

// Fig9FeatureSensitivity searches the composite design space under each
// feature constraint at the 48mm2 budget (multi-programmed throughput).
func (s *Searcher) Fig9FeatureSensitivity(ctx context.Context) (*Fig9Result, error) {
	budget := Budget{AreaMM2: 48}
	base, err := s.Search(ctx, OrgCompositeFull, ObjMPThroughput, budget)
	if err != nil {
		return nil, err
	}
	res := &Fig9Result{Budget: budget, Unconstrained: base}
	for _, fc := range Fig9Constraints() {
		cmp, err := s.SearchConstrained(ctx, ObjMPThroughput, budget, fc.Name, fc.Keep)
		row := Fig9Row{Constraint: fc.Name}
		if err != nil {
			if eval.IsCtxErr(err) {
				return nil, err
			}
			row.DegradationPct = 100
		} else {
			row.CMP = cmp
			row.Score = cmp.Score
		}
		res.Rows = append(res.Rows, row)
	}
	// Every constrained CMP is a feasible unconstrained design, so the
	// hill-climbing searches define the unconstrained optimum only up to
	// local-optima noise: adopt the best design found anywhere as the
	// baseline, which guarantees non-negative degradations up to noise.
	for _, row := range res.Rows {
		if row.CMP.Cores[0] != nil && row.Score > res.Unconstrained.Score {
			res.Unconstrained = row.CMP
		}
	}
	for i := range res.Rows {
		if res.Rows[i].CMP.Cores[0] != nil {
			res.Rows[i].DegradationPct = 100 * (1 - res.Rows[i].Score/res.Unconstrained.Score)
		}
	}
	return res, nil
}

// Format renders Figure 9.
func (r *Fig9Result) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 9: performance degradation under feature constraints (%s, MP throughput)\n", r.Budget)
	fmt.Fprintf(&sb, "  unconstrained score: %.4f\n", r.Unconstrained.Score)
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "  %-18s %6.1f%% degradation (score %.4f)\n", row.Constraint, row.DegradationPct, row.Score)
	}
	return sb.String()
}

// StageBreakdown is a per-pipeline-stage decomposition for Figures 10/11,
// summed over the four cores (caches excluded, as in the paper's plots).
type StageBreakdown struct {
	Label      string
	Fetch      float64
	Decode     float64
	BranchPred float64
	Scheduler  float64
	RegFile    float64
	FU         float64
}

func (b StageBreakdown) Total() float64 {
	return b.Fetch + b.Decode + b.BranchPred + b.Scheduler + b.RegFile + b.FU
}

// AreaBreakdown computes the Figure 10 transistor-investment rows: combined
// core area (without caches) by stage for each design.
func AreaBreakdown(label string, cmp CMP) StageBreakdown {
	out := StageBreakdown{Label: label}
	for _, c := range cmp.Cores {
		a := power.Area(c.DP.ISA.Traits(), c.DP.Cfg)
		out.Fetch += a.Fetch
		out.Decode += a.Decode
		out.BranchPred += a.BranchPred
		out.Scheduler += a.Scheduler + a.LSQ
		out.RegFile += a.RegFile
		out.FU += a.FU
	}
	return out
}

// EnergyBreakdown computes the Figure 11 row of one design: runtime energy
// by stage, averaged over the workload suite (each core runs every region
// weighted by its SimPoint weight — the multiprogrammed schedule visits all
// of them), from each core's per-region dynamic energies (rescore).
// Degraded regions have zero energies, so they contribute nothing.
func EnergyBreakdown(label string, cmp CMP, regions []workload.Region, dyn map[DesignPoint][]power.Breakdown) StageBreakdown {
	out := StageBreakdown{Label: label}
	for _, c := range cmp.Cores {
		d := dyn[c.DP]
		for ri, r := range regions {
			en := &d[ri]
			w := r.Weight
			out.Fetch += w * en.Fetch
			out.Decode += w * en.Decode
			out.BranchPred += w * en.BranchPred
			out.Scheduler += w * (en.Scheduler + en.LSQ)
			out.RegFile += w * en.RegFile
			out.FU += w * en.FU
		}
	}
	return out
}

// rescore runs fill once per distinct design point among cores, on the par
// pool, into a fresh per-region slice, and returns the slices by design
// point. fill rescores through DB.EachMetric or DB.EachCycles.
func rescore[T any](ctx context.Context, db *DB, cores []*Candidate, fill func(dp DesignPoint, v []T) error) (map[DesignPoint][]T, error) {
	var dps []DesignPoint
	seen := make(map[DesignPoint]bool, len(cores))
	for _, c := range cores {
		if !seen[c.DP] {
			seen[c.DP] = true
			dps = append(dps, c.DP)
		}
	}
	vals, err := par.Map(ctx, len(dps), 0, func(i int) ([]T, error) {
		v := make([]T, len(db.Regions))
		return v, fill(dps[i], v)
	})
	if err != nil {
		return nil, err
	}
	out := make(map[DesignPoint][]T, len(dps))
	for i, dp := range dps {
		out[dp] = vals[i]
	}
	return out, nil
}

// cyclesOf rescores each distinct design point among cores once, keeping
// its cycles per region.
func cyclesOf(ctx context.Context, db *DB, cores []*Candidate) (map[DesignPoint][]float64, error) {
	return rescore(ctx, db, cores, func(dp DesignPoint, v []float64) error {
		return db.EachCycles(ctx, dp, func(r int, cycles float64) { v[r] = cycles })
	})
}

// coreCycles returns each of four cores' cycles per region, rescored.
func coreCycles(ctx context.Context, db *DB, cores *[4]*Candidate) (*[4][]float64, error) {
	cyc, err := cyclesOf(ctx, db, cores[:])
	if err != nil {
		return nil, err
	}
	var out [4][]float64
	for k, c := range cores {
		out[k] = cyc[c.DP]
	}
	return &out, nil
}

// Fig10TransistorInvestment renders Figure 10 over Figure 9's designs.
func Fig10TransistorInvestment(r *Fig9Result) string {
	// AreaBreakdown cannot fail, so neither can the rendering.
	out, _ := formatBreakdowns(
		"Figure 10: transistor investment by processor area (normalized to full diversity, caches excluded)",
		r, func(label string, cmp CMP) (StageBreakdown, error) { return AreaBreakdown(label, cmp), nil })
	return out
}

// Fig11EnergyBreakdown renders Figure 11 over Figure 9's designs, each
// distinct core rescored once.
func Fig11EnergyBreakdown(ctx context.Context, db *DB, r *Fig9Result) (string, error) {
	cores := append([]*Candidate{}, r.Unconstrained.Cores[:]...)
	for _, row := range r.Rows {
		if row.CMP.Cores[0] != nil {
			cores = append(cores, row.CMP.Cores[:]...)
		}
	}
	dyn, err := rescore(ctx, db, cores, func(dp DesignPoint, v []power.Breakdown) error {
		return db.EachMetric(ctx, dp, func(r int, _ Metric, en power.EnergyResult, _ error) { v[r] = en.Dynamic })
	})
	if err != nil {
		return "", err
	}
	return formatBreakdowns(
		"Figure 11: processor energy breakdown (normalized to full diversity, caches excluded)",
		r, func(label string, cmp CMP) (StageBreakdown, error) {
			return EnergyBreakdown(label, cmp, db.Regions, dyn), nil
		})
}

// formatBreakdowns renders Figures 10/11: one row per feasible constrained
// design of Figure 9, then the unconstrained one ("full diversity"), every
// row normalized to the unconstrained design's total.
func formatBreakdowns(title string, r *Fig9Result, breakdown func(string, CMP) (StageBreakdown, error)) (string, error) {
	var rows []StageBreakdown
	for _, row := range r.Rows {
		if row.CMP.Cores[0] == nil {
			continue
		}
		b, err := breakdown(row.Constraint, row.CMP)
		if err != nil {
			return "", err
		}
		rows = append(rows, b)
	}
	full, err := breakdown("full diversity", r.Unconstrained)
	if err != nil {
		return "", err
	}
	rows = append(rows, full)
	base := full.Total()
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n", title)
	fmt.Fprintf(&sb, "  %-18s %7s %7s %7s %7s %7s %7s %8s\n",
		"design", "fetch", "decode", "bpred", "sched", "regfile", "fu", "total")
	for _, b := range rows {
		fmt.Fprintf(&sb, "  %-18s %7.3f %7.3f %7.3f %7.3f %7.3f %7.3f %8.3f\n",
			b.Label, b.Fetch/base, b.Decode/base, b.BranchPred/base,
			b.Scheduler/base, b.RegFile/base, b.FU/base, b.Total()/base)
	}
	return sb.String(), nil
}

// AffinityResult is the execution-time breakdown across feature sets
// (Figures 12/13): per benchmark, the share of time spent on each feature
// set of the chosen multicore.
type AffinityResult struct {
	Title string
	// Share[bench][fsKey] sums to 1 per benchmark.
	Share map[string]map[string]float64
	// FeatureSets lists the CMP's distinct feature sets in display order.
	FeatureSets []string
}

// Fig12AffinitySingleThread computes feature affinity on the composite CMP
// optimized for single-thread performance under a 10W peak power budget:
// each region migrates to its best core; its time lands on that core's
// feature set.
func (s *Searcher) Fig12AffinitySingleThread(ctx context.Context) (*AffinityResult, error) {
	cmp, err := s.Search(ctx, OrgCompositeFull, ObjSTPerf, Budget{PeakW: 10})
	if err != nil {
		return nil, err
	}
	res := &AffinityResult{
		Title: "Figure 12: execution-time breakdown, ST-optimal composite CMP @ 10W",
		Share: map[string]map[string]float64{},
	}
	res.FeatureSets = distinctFS(cmp)
	best := make([]int, len(s.DB.Regions))
	var read []*Candidate // the cores some region runs on best
	var isRead [4]bool
	for ri := range s.DB.Regions {
		b := 0
		for k := 1; k < 4; k++ {
			if cmp.Cores[k].Speedup[ri] > cmp.Cores[b].Speedup[ri] {
				b = k
			}
		}
		best[ri] = b
		if !isRead[b] {
			isRead[b] = true
			read = append(read, cmp.Cores[b])
		}
	}
	// Only the cores some region runs on best are rescored.
	cyc, err := cyclesOf(ctx, s.DB, read)
	if err != nil {
		return nil, err
	}
	var coreCyc [4][]float64
	for k, c := range cmp.Cores {
		if isRead[k] {
			coreCyc[k] = cyc[c.DP]
		}
	}
	for ri, r := range s.DB.Regions {
		t := r.Weight * coreCyc[best[ri]][ri]
		addShare(res.Share, r.Benchmark, cmp.Cores[best[ri]].DP.ISA.Key(), t)
	}
	normalizeShares(res.Share)
	return res, nil
}

// Fig13AffinityMultiprogrammed computes feature affinity on the composite
// CMP optimized for multi-programmed throughput at 48mm2: threads contend,
// so applications also execute on feature sets of second preference.
func (s *Searcher) Fig13AffinityMultiprogrammed(ctx context.Context) (*AffinityResult, error) {
	cmp, err := s.Search(ctx, OrgCompositeFull, ObjMPThroughput, Budget{AreaMM2: 48})
	if err != nil {
		return nil, err
	}
	res := &AffinityResult{
		Title: "Figure 13: execution-time breakdown, MP-optimal composite CMP @ 48mm2",
		Share: map[string]map[string]float64{},
	}
	res.FeatureSets = distinctFS(cmp)
	cyc, err := coreCycles(ctx, s.DB, &cmp.Cores)
	if err != nil {
		return nil, err
	}
	stats := s.si.scheduleMP(&cmp.Cores, cyc, s.DB.Regions, nil)
	for bench, byCore := range stats.TimeByBenchCore {
		for coreIdx, t := range byCore {
			addShare(res.Share, bench, cmp.Cores[coreIdx].DP.ISA.Key(), t)
		}
	}
	normalizeShares(res.Share)
	return res, nil
}

func distinctFS(cmp CMP) []string {
	seen := map[string]bool{}
	for _, c := range cmp.Cores {
		seen[c.DP.ISA.Key()] = true
	}
	return sortedKeys(seen)
}

func addShare(m map[string]map[string]float64, bench, key string, v float64) {
	if m[bench] == nil {
		m[bench] = map[string]float64{}
	}
	m[bench][key] += v
}

// normalizeShares scales each benchmark's shares to sum to 1. Each total
// is summed in sorted-key order, so it does not depend on map order.
func normalizeShares(m map[string]map[string]float64) {
	for _, byKey := range m {
		total := 0.0
		for _, k := range sortedKeys(byKey) {
			total += byKey[k]
		}
		if total == 0 {
			continue
		}
		for k := range byKey {
			byKey[k] /= total
		}
	}
}

// sortedKeys returns m's keys in ascending order, for reductions and
// tie-breaks that must not depend on map order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Format renders an affinity result.
func (a *AffinityResult) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n", a.Title)
	fmt.Fprintf(&sb, "  %-8s", "bench")
	for _, fs := range a.FeatureSets {
		fmt.Fprintf(&sb, " %16s", fs)
	}
	sb.WriteByte('\n')
	for _, b := range workload.Names() {
		fmt.Fprintf(&sb, "  %-8s", b)
		for _, fs := range a.FeatureSets {
			fmt.Fprintf(&sb, " %15.1f%%", 100*a.Share[b][fs])
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// MPScheduleStats captures the instrumented multi-programmed schedule.
type MPScheduleStats struct {
	// TimeByBenchCore[bench][coreIdx] accumulates cycles.
	TimeByBenchCore map[string][4]float64
	// Migrations counts thread-to-core reassignments at phase boundaries.
	Migrations int
	Steps      int
	// Throughput is the mean per-step speedup (the scoreMP metric).
	Throughput float64
}

// stepHook lets callers adjust a thread's speedup for a (region, core)
// assignment (Figure 15 applies binary-compatibility and migration costs).
type stepHook func(thread int, region int, core int, speedup float64, migrated bool) float64

// scheduleMP runs the contention scheduler with full instrumentation,
// charging each committed assignment the cycles cyc (coreCycles of cores)
// gives its core on its region.
func (si *suiteIndex) scheduleMP(cores *[4]*Candidate, cyc *[4][]float64, regions []workload.Region, hook stepHook) *MPScheduleStats {
	st := &MPScheduleStats{TimeByBenchCore: map[string][4]float64{}}
	total := 0.0
	for m := range si.mixes {
		prev := [4]int{-1, -1, -1, -1} // thread -> core
		for _, ph := range si.steps[si.mixStart[m]:si.mixStart[m+1]] {
			phase := [4]int{int(ph[0]), int(ph[1]), int(ph[2]), int(ph[3])}
			best := -1.0e18
			var bestPerm [4]int
			for _, perm := range si.perms {
				v := 0.0
				for th := 0; th < 4; th++ {
					sp := cores[perm[th]].Speedup[phase[th]]
					if hook != nil {
						sp = hook(th, phase[th], perm[th], sp, prev[th] >= 0 && prev[th] != perm[th])
					}
					v += sp
				}
				if v > best {
					best = v
					bestPerm = perm
				}
			}
			for th := 0; th < 4; th++ {
				core := bestPerm[th]
				if prev[th] >= 0 && prev[th] != core {
					st.Migrations++
				}
				prev[th] = core
				bench := regions[phase[th]].Benchmark
				arr := st.TimeByBenchCore[bench]
				arr[core] += cyc[core][phase[th]]
				st.TimeByBenchCore[bench] = arr
			}
			total += best / 4
			st.Steps++
		}
	}
	st.Throughput = total / float64(st.Steps)
	return st
}
