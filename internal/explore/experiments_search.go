package explore

import (
	"context"
	"fmt"
	"strings"

	"compisa/internal/eval"
	"compisa/internal/isa"
)

// PowerBudgets and AreaBudgets are the evaluation's budget axes.
var (
	MPPowerBudgets = []Budget{{PeakW: 20}, {PeakW: 40}, {PeakW: 60}, {}}
	STPowerBudgets = []Budget{{PeakW: 5}, {PeakW: 10}, {PeakW: 15}, {}}
	AreaBudgets    = []Budget{{AreaMM2: 48}, {AreaMM2: 64}, {AreaMM2: 80}, {}}
)

// OrgResult is one organization's result at one budget.
type OrgResult struct {
	Org    Organization
	Budget Budget
	CMP    CMP
	// Score is the raw objective; Relative is normalized to the
	// homogeneous organization at the same budget.
	Score    float64
	Relative float64
	Err      error
}

// SweepResult is a (budget x organization) sweep for one objective.
type SweepResult struct {
	Objective Objective
	Budgets   []Budget
	Rows      [][]OrgResult // [budget][organization]
}

// Sweep runs all five organizations across the given budgets. Infeasible
// searches become infeasible rows; cancellation aborts the sweep.
func (s *Searcher) Sweep(ctx context.Context, obj Objective, budgets []Budget) (*SweepResult, error) {
	res := &SweepResult{Objective: obj, Budgets: budgets}
	for _, b := range budgets {
		var row []OrgResult
		var homScore float64
		for _, org := range Organizations() {
			r := OrgResult{Org: org, Budget: b}
			cmp, err := s.Search(ctx, org, obj, b)
			if err != nil {
				if eval.IsCtxErr(err) {
					return nil, err
				}
				r.Err = err
			} else {
				r.CMP = cmp
				r.Score = cmp.Score
			}
			if org == OrgHomogeneous && err == nil {
				homScore = cmp.Score
			}
			row = append(row, r)
		}
		// For speedup objectives Relative > 1 beats homogeneous; for EDP
		// objectives the scores are negated EDP means, so the ratio is
		// the relative EDP (< 1 beats homogeneous).
		for i := range row {
			if row[i].Err == nil && homScore != 0 {
				row[i].Relative = row[i].Score / homScore
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Format renders the sweep like the paper's bar charts (one row per budget).
func (r *SweepResult) Format(title string) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n", title)
	fmt.Fprintf(&sb, "%-10s", "budget")
	for _, org := range Organizations() {
		fmt.Fprintf(&sb, " %22s", shortOrg(org))
	}
	sb.WriteByte('\n')
	for bi, b := range r.Budgets {
		fmt.Fprintf(&sb, "%-10s", b.String())
		for _, cell := range r.Rows[bi] {
			if cell.Err != nil {
				fmt.Fprintf(&sb, " %22s", "infeasible")
				continue
			}
			fmt.Fprintf(&sb, " %22.3f", cell.Relative)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

func shortOrg(o Organization) string {
	switch o {
	case OrgHomogeneous:
		return "homogeneous"
	case OrgSingleISAHetero:
		return "single-ISA-hetero"
	case OrgCompositeFixed:
		return "composite-x86ized"
	case OrgHeteroVendor:
		return "hetero-ISA-vendor"
	default:
		return "composite-full"
	}
}

// TableRow renders one core of a composite CMP in the style of Tables III/IV.
func TableRow(i int, c *Candidate) string {
	fs := c.DP.ISA.FS
	cfg := c.DP.Cfg
	cplx := "x86"
	if fs.Complexity == isa.MicroX86 {
		cplx = "ux86"
	}
	pred := "P"
	if fs.Predication == isa.FullPredication {
		pred = "F"
	}
	exe := "I"
	if cfg.OoO {
		exe = "O"
	}
	return fmt.Sprintf("%d  %-4s %2d %2d %s %s %d %s  %3dI/%3dF rob%-3d iq%-2d alu%d mul%d fp%d lsq%-2d %2dkB/%d %dMB/%d",
		i, cplx, fs.Width, fs.Depth, pred, exe, cfg.Width, cfg.Predictor.ShortString(),
		cfg.PRFInt, cfg.PRFFP, cfg.ROB, cfg.IQ, cfg.IntALU, cfg.IntMul, cfg.FPALU, cfg.LSQ,
		cfg.L1I.SizeKB, cfg.L1I.Assoc, cfg.L2.PerCoreKB()/1024, cfg.L2.Assoc)
}

// OptimalDesignTable runs the composite-full search per budget and renders
// the architectural composition (Tables III and IV).
func (s *Searcher) OptimalDesignTable(ctx context.Context, obj Objective, budgets []Budget) (string, error) {
	var sb strings.Builder
	name := "Table III: composite-ISA multicores optimized for multi-programmed throughput"
	if obj == ObjMPEDP {
		name = "Table IV: composite-ISA multicores optimized for multi-programmed efficiency (EDP)"
	}
	fmt.Fprintf(&sb, "%s\n", name)
	for _, b := range budgets {
		cmp, err := s.Search(ctx, OrgCompositeFull, obj, b)
		if err != nil {
			if eval.IsCtxErr(err) {
				return "", err
			}
			fmt.Fprintf(&sb, "-- budget %s: infeasible (%v)\n", b, err)
			continue
		}
		fmt.Fprintf(&sb, "-- budget %s (score %.3f, %.1fW, %.1fmm2)\n", b, cmp.Score, cmp.TotalPeak(), cmp.TotalArea())
		for i, c := range cmp.Cores {
			fmt.Fprintf(&sb, "   %s\n", TableRow(i, c))
		}
	}
	return sb.String(), nil
}
