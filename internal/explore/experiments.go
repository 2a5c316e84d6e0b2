package explore

import (
	"context"
	"fmt"
	"io"
	"strings"
)

// Experiment is one table or figure of the paper's evaluation. Its panels
// render in order, each as one printed block; Figures 7 and 8 have an (a)
// and a (b) panel, every other experiment has one.
type Experiment struct {
	Name   string
	Panels []Panel
}

// Panel renders one block of an experiment's output.
type Panel func(ctx context.Context, x *Session) (string, error)

// Run writes the experiment's panels to w as each completes, every one
// followed by a newline.
func (e Experiment) Run(ctx context.Context, x *Session, w io.Writer) error {
	for _, p := range e.Panels {
		out, err := p(ctx, x)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, out)
	}
	return nil
}

// Session is one run over the experiment table: the Searcher every
// experiment draws on, plus the two results later experiments consume —
// Figure 9 feeds Figures 10 and 11, Figure 14 feeds Figure 15 — computed
// at most once per session whichever experiment asks first. Start one as
// &Session{S: s}; a Session is not safe for concurrent use.
type Session struct {
	S     *Searcher
	fig9  *Fig9Result
	fig14 *Fig14Result
}

func (x *Session) fig9Result(ctx context.Context) (*Fig9Result, error) {
	return memo(&x.fig9, func() (*Fig9Result, error) { return x.S.Fig9FeatureSensitivity(ctx) })
}

func (x *Session) fig14Result(ctx context.Context) (*Fig14Result, error) {
	return memo(&x.fig14, func() (*Fig14Result, error) { return Fig14DowngradeCost(ctx, x.S.DB) })
}

// memo returns *slot, filling it from compute first if it is empty; a
// failed compute leaves it empty.
func memo[T any](slot **T, compute func() (*T, error)) (*T, error) {
	if *slot == nil {
		r, err := compute()
		if err != nil {
			return nil, err
		}
		*slot = r
	}
	return *slot, nil
}

// format renders a driver's result, passing its error through.
func format[T interface{ Format() string }](r T, err error) (string, error) {
	if err != nil {
		return "", err
	}
	return r.Format(), nil
}

// sweep is the panel of a five-organization sweep.
func sweep(obj Objective, budgets []Budget, title string) Panel {
	return func(ctx context.Context, x *Session) (string, error) {
		r, err := x.S.Sweep(ctx, obj, budgets)
		if err != nil {
			return "", err
		}
		return r.Format(title), nil
	}
}

// mpBudgets is the x axis of Figures 5 and 6: power budgets, then area.
var mpBudgets = append(append([]Budget{}, MPPowerBudgets...), AreaBudgets...)

// experiments is the evaluation in paper order.
var experiments = []Experiment{
	{"sec3", []Panel{func(ctx context.Context, x *Session) (string, error) {
		return format(Sec3CodegenDeltas(ctx, x.S.DB))
	}}},
	{"fig2", []Panel{func(ctx context.Context, x *Session) (string, error) {
		return format(Fig2InstructionMix(ctx, x.S.DB))
	}}},
	{"fig5", []Panel{sweep(ObjMPThroughput, mpBudgets,
		"Figure 5: multi-programmed throughput (relative to homogeneous; higher is better)")}},
	{"fig6", []Panel{sweep(ObjMPEDP, mpBudgets,
		"Figure 6: multi-programmed EDP (relative to homogeneous; lower is better)")}},
	{"fig7", []Panel{
		sweep(ObjSTPerf, STPowerBudgets, "Figure 7a: single-thread performance under peak power budgets"),
		sweep(ObjSTEDP, STPowerBudgets, "Figure 7b: single-thread EDP under peak power budgets (lower is better)"),
	}},
	{"fig8", []Panel{
		sweep(ObjSTPerf, AreaBudgets, "Figure 8a: single-thread performance under area budgets"),
		sweep(ObjSTEDP, AreaBudgets, "Figure 8b: single-thread EDP under area budgets (lower is better)"),
	}},
	{"table3", []Panel{func(ctx context.Context, x *Session) (string, error) {
		return x.S.OptimalDesignTable(ctx, ObjMPThroughput, MPPowerBudgets)
	}}},
	{"table4", []Panel{func(ctx context.Context, x *Session) (string, error) {
		return x.S.OptimalDesignTable(ctx, ObjMPEDP, MPPowerBudgets)
	}}},
	{"fig9", []Panel{func(ctx context.Context, x *Session) (string, error) {
		return format(x.fig9Result(ctx))
	}}},
	{"fig10", []Panel{func(ctx context.Context, x *Session) (string, error) {
		r, err := x.fig9Result(ctx)
		if err != nil {
			return "", err
		}
		return Fig10TransistorInvestment(r), nil
	}}},
	{"fig11", []Panel{func(ctx context.Context, x *Session) (string, error) {
		r, err := x.fig9Result(ctx)
		if err != nil {
			return "", err
		}
		return Fig11EnergyBreakdown(ctx, x.S.DB, r)
	}}},
	{"fig12", []Panel{func(ctx context.Context, x *Session) (string, error) {
		return format(x.S.Fig12AffinitySingleThread(ctx))
	}}},
	{"fig13", []Panel{func(ctx context.Context, x *Session) (string, error) {
		return format(x.S.Fig13AffinityMultiprogrammed(ctx))
	}}},
	{"fig14", []Panel{func(ctx context.Context, x *Session) (string, error) {
		return format(x.fig14Result(ctx))
	}}},
	{"fig15", []Panel{func(ctx context.Context, x *Session) (string, error) {
		costs, err := x.fig14Result(ctx)
		if err != nil {
			return "", err
		}
		return format(x.S.Fig15MigrationOverhead(ctx, Budget{AreaMM2: 48}, costs))
	}}},
}

// ExperimentNames lists the experiments' names in paper order.
func ExperimentNames() []string {
	names := make([]string, len(experiments))
	for i, e := range experiments {
		names[i] = e.Name
	}
	return names
}

// SelectExperiments returns what name selects: every experiment in paper
// order for "all", else the one so named.
func SelectExperiments(name string) ([]Experiment, error) {
	if name == "all" {
		return append([]Experiment(nil), experiments...), nil
	}
	for _, e := range experiments {
		if e.Name == name {
			return []Experiment{e}, nil
		}
	}
	return nil, fmt.Errorf("unknown experiment %q (want %s, or all)", name, strings.Join(ExperimentNames(), ", "))
}
