package explore

import (
	"context"
	"fmt"
	"strings"

	"compisa/internal/cpu"
	"compisa/internal/isa"
	"compisa/internal/workload"
)

// MixRow is one benchmark's dynamic micro-op mix under one feature set,
// normalized to the x86-64 baseline (Figure 2).
type MixRow struct {
	Benchmark string
	// Normalized dynamic counts (x86-64 = 1.0).
	Loads, Stores, Int, Branch, FP, Uops float64
}

// Fig2Result is the Figure 2 reproduction: instruction-mix rows for
// microx86-32 (depth 8), x86-64+SSE, and the superset ISA.
type Fig2Result struct {
	MicroX86 []MixRow
	X8664    []MixRow
	Superset []MixRow
}

// classCounts aggregates weighted dynamic counts per benchmark.
type classCounts struct {
	loads, stores, ints, branches, fp, uops float64
}

func mixFor(ctx context.Context, db *DB, c ISAChoice) (map[string]classCounts, error) {
	ps, err := db.Profiles(ctx, c)
	if err != nil {
		return nil, err
	}
	out := map[string]classCounts{}
	for i, r := range db.Regions {
		p := ps[i]
		if p == nil {
			continue // quarantined pair: excluded from the mix
		}
		cc := out[r.Benchmark]
		w := r.Weight
		cc.loads += w * float64(p.UopsByClass[cpu.UcLoad])
		cc.stores += w * float64(p.UopsByClass[cpu.UcStore])
		cc.ints += w * float64(p.UopsByClass[cpu.UcInt]+p.UopsByClass[cpu.UcMul])
		cc.branches += w * float64(p.UopsByClass[cpu.UcBranch])
		cc.fp += w * float64(p.UopsByClass[cpu.UcFP]+p.UopsByClass[cpu.UcFDiv])
		cc.uops += w * float64(p.Uops)
		out[r.Benchmark] = cc
	}
	return out, nil
}

func normalizeMix(num, den map[string]classCounts) []MixRow {
	var rows []MixRow
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	for _, b := range workload.Names() {
		n, d := num[b], den[b]
		rows = append(rows, MixRow{
			Benchmark: b,
			Loads:     ratio(n.loads, d.loads),
			Stores:    ratio(n.stores, d.stores),
			Int:       ratio(n.ints, d.ints),
			Branch:    ratio(n.branches, d.branches),
			FP:        ratio(n.fp, d.fp),
			Uops:      ratio(n.uops, d.uops),
		})
	}
	return rows
}

// Fig2InstructionMix reproduces Figure 2: the dynamic micro-op breakdown of
// the smallest feature set (microx86-8D-32W), x86-64+SSE, and the superset
// ISA, normalized to x86-64.
func Fig2InstructionMix(ctx context.Context, db *DB) (*Fig2Result, error) {
	base, err := mixFor(ctx, db, X8664Choice())
	if err != nil {
		return nil, err
	}
	micro, err := mixFor(ctx, db, ISAChoice{FS: isa.MicroX86Min})
	if err != nil {
		return nil, err
	}
	super, err := mixFor(ctx, db, ISAChoice{FS: isa.Superset})
	if err != nil {
		return nil, err
	}
	return &Fig2Result{
		MicroX86: normalizeMix(micro, base),
		X8664:    normalizeMix(base, base),
		Superset: normalizeMix(super, base),
	}, nil
}

// Format renders the figure as text.
func (f *Fig2Result) Format() string {
	var sb strings.Builder
	sb.WriteString("Figure 2: dynamic micro-op mix, normalized to x86-64+SSE\n")
	hdr := fmt.Sprintf("%-8s %7s %7s %7s %7s %7s %7s\n", "bench", "loads", "stores", "int", "branch", "fp", "uops")
	emit := func(name string, rows []MixRow) {
		fmt.Fprintf(&sb, "-- %s --\n%s", name, hdr)
		for _, r := range rows {
			fmt.Fprintf(&sb, "%-8s %7.2f %7.2f %7.2f %7.2f %7.2f %7.2f\n",
				r.Benchmark, r.Loads, r.Stores, r.Int, r.Branch, r.FP, r.Uops)
		}
	}
	emit("microx86-8D-32W", f.MicroX86)
	emit("x86-64 (baseline)", f.X8664)
	emit("superset", f.Superset)
	return sb.String()
}

// Sec3Deltas reproduces the Section III code-generation statistics.
type Sec3Deltas struct {
	// Depth 32 -> 16 (microx86-32W): percentage increases.
	DepthStoresPct, DepthLoadsPct, DepthIntPct, DepthBranchPct float64
	// Full predication (microx86-32W-32D): dynamic instr increase and
	// branch reduction, in percent.
	PredInstrPct, PredBranchPct float64
	// microx86-8D-32W vs x86-64: memory-reference and micro-op expansion.
	MicroMemRefPct, MicroUopPct float64
	// Superset vs x86-64: reductions (negative = fewer).
	SupersetLoadsPct, SupersetIntPct, SupersetBranchPct float64
}

func pct(n, d float64) float64 { return 100 * (n/d - 1) }

// Sec3CodegenDeltas measures the Section III feature-impact numbers from the
// compiled suite.
func Sec3CodegenDeltas(ctx context.Context, db *DB) (*Sec3Deltas, error) {
	// Sum in the fixed benchmark order: float addition is not associative,
	// and map order would let a near-zero delta flip sign across reruns.
	total := func(m map[string]classCounts) classCounts {
		var t classCounts
		for _, b := range workload.Names() {
			c := m[b]
			t.loads += c.loads
			t.stores += c.stores
			t.ints += c.ints
			t.branches += c.branches
			t.fp += c.fp
			t.uops += c.uops
		}
		return t
	}
	get := func(fs isa.FeatureSet) (classCounts, error) {
		m, err := mixFor(ctx, db, ISAChoice{FS: fs})
		if err != nil {
			return classCounts{}, err
		}
		return total(m), nil
	}
	d32, err := get(isa.MustNew(isa.MicroX86, 32, 32, isa.PartialPredication))
	if err != nil {
		return nil, err
	}
	d16, err := get(isa.MustNew(isa.MicroX86, 32, 16, isa.PartialPredication))
	if err != nil {
		return nil, err
	}
	predOff, err := get(isa.MustNew(isa.MicroX86, 32, 32, isa.PartialPredication))
	if err != nil {
		return nil, err
	}
	predOn, err := get(isa.MustNew(isa.MicroX86, 32, 32, isa.FullPredication))
	if err != nil {
		return nil, err
	}
	micro, err := get(isa.MicroX86Min)
	if err != nil {
		return nil, err
	}
	base, err := get(isa.X8664)
	if err != nil {
		return nil, err
	}
	super, err := get(isa.Superset)
	if err != nil {
		return nil, err
	}
	return &Sec3Deltas{
		DepthStoresPct: pct(d16.stores, d32.stores),
		DepthLoadsPct:  pct(d16.loads, d32.loads),
		DepthIntPct:    pct(d16.ints, d32.ints),
		DepthBranchPct: pct(d16.branches, d32.branches),

		PredInstrPct:  pct(predOn.uops, predOff.uops),
		PredBranchPct: pct(predOn.branches, predOff.branches),

		MicroMemRefPct: pct(micro.loads+micro.stores, base.loads+base.stores),
		MicroUopPct:    pct(micro.uops, base.uops),

		SupersetLoadsPct:  pct(super.loads, base.loads),
		SupersetIntPct:    pct(super.ints, base.ints),
		SupersetBranchPct: pct(super.branches, base.branches),
	}, nil
}

// Format renders the deltas next to the paper's numbers.
func (d *Sec3Deltas) Format() string {
	var sb strings.Builder
	sb.WriteString("Section III code-generation deltas (measured vs paper)\n")
	row := func(name string, got, paper float64) {
		fmt.Fprintf(&sb, "  %-46s %+7.1f%%   (paper %+.1f%%)\n", name, got, paper)
	}
	row("depth 32->16: stores (spills)", d.DepthStoresPct, 3.7)
	row("depth 32->16: loads (refills)", d.DepthLoadsPct, 10.3)
	row("depth 32->16: integer instructions", d.DepthIntPct, 3.5)
	row("depth 32->16: branches (remat)", d.DepthBranchPct, 2.7)
	row("full predication: dynamic micro-ops", d.PredInstrPct, 0.6)
	row("full predication: branches", d.PredBranchPct, -6.5)
	row("microx86-8D-32W vs x86-64: memory refs", d.MicroMemRefPct, 28)
	row("microx86-8D-32W vs x86-64: micro-ops", d.MicroUopPct, 11)
	row("superset vs x86-64: loads", d.SupersetLoadsPct, -8.5)
	row("superset vs x86-64: integer instructions", d.SupersetIntPct, -6.3)
	row("superset vs x86-64: branches", d.SupersetBranchPct, -3.2)
	return sb.String()
}
