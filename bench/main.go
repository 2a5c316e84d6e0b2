// Command bench is the end-to-end, layer-resolved benchmark of the
// composite-ISA design-space exploration. It drives the real pipeline from
// outside, through the public entry points of each layer, on one of three
// workloads:
//
//	sweep-cold   every organization's candidates on a fresh DB (a cold sweep)
//	search-mp    the fig5 (MP) and fig7a/fig8a (ST) CMP searches over a warm DB
//	serve-mixed  an in-process compose-serve under cold, then warm /evaluate load
//
// Usage, from the repository root:
//
//	bash bench/run.sh --workload sweep-cold --seed 1 --seconds 30 --trace 0
//
// A run repeats whole passes of the workload's fixed work while the next
// pass fits in --seconds (at least one pass), checks every output against
// bench/golden.json or an independent in-process oracle, prints each metric
// with its unit, and ends with one JSON line. --trace 1 replaces the
// end-to-end metrics by the per-layer ones; see README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"compisa/internal/eval"
	"compisa/internal/explore"
	"compisa/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceOut string
	regions  int
	update   bool
}

func parseFlags(args []string, stderr io.Writer) (config, error) {
	var c config
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&c.workload, "workload", "", "workload: sweep-cold, search-mp or serve-mixed")
	fs.Int64Var(&c.seed, "seed", 1, "seed for the order of operations and the request mix")
	fs.Float64Var(&c.seconds, "seconds", 30, "measuring time; whole passes run while the next one fits")
	trace := fs.Int("trace", 0, "1 = traced run: print the per-layer metrics instead of the end-to-end ones")
	fs.StringVar(&c.traceOut, "trace-out", "", "spans JSON file of a traced run (default .bench_build/trace-<workload>-<seed>.json)")
	fs.IntVar(&c.regions, "regions", 0, "use this many of the 49 regions (0 = all; golden digests apply only to all)")
	fs.BoolVar(&c.update, "update", false, "write this run's digests to "+goldenPath+" instead of checking them")
	if err := fs.Parse(args); err != nil {
		return c, err
	}
	switch {
	case workloads[c.workload] == nil:
		return c, fmt.Errorf("unknown -workload %q (want sweep-cold, search-mp or serve-mixed)", c.workload)
	case *trace != 0 && *trace != 1:
		return c, fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	case c.seconds <= 0:
		return c, fmt.Errorf("-seconds must be positive")
	case c.regions < 0 || c.regions > len(workload.Regions()):
		return c, fmt.Errorf("-regions must be in [0, %d]", len(workload.Regions()))
	case c.update && c.regions != 0:
		return c, fmt.Errorf("-update needs the full suite (no -regions)")
	}
	c.trace = *trace == 1
	if c.traceOut == "" {
		c.traceOut = filepath.Join(".bench_build", fmt.Sprintf("trace-%s-%d.json", c.workload, c.seed))
	}
	return c, nil
}

// A workload is a fixed unit of work (a pass) run repeatedly. setup builds
// the state one pass needs and must hold no resources beyond memory, since
// extra set-ups run to sample set-up time.
type workloadImpl interface {
	// prepare runs once before the timed phase; it is neither set-up nor pass.
	prepare(ctx context.Context, b *bench) error
	setup(ctx context.Context, b *bench) error
	pass(ctx context.Context, b *bench) error
	// verify checks one pass's outputs, untimed.
	verify(ctx context.Context, b *bench) error
	// finish runs once after the timed phase, untimed.
	finish(ctx context.Context, b *bench) error
}

var workloads = map[string]func() workloadImpl{
	"sweep-cold":  func() workloadImpl { return &sweepCold{} },
	"search-mp":   func() workloadImpl { return &searchMP{} },
	"serve-mixed": func() workloadImpl { return &serveMixed{} },
}

const (
	// minSetups is how many set-ups a run samples at least, for a median.
	minSetups = 3
	// warmUp is how long set-ups repeat before the first pass. A vCPU
	// that was idle runs its first second markedly slower.
	warmUp = time.Second
)

type bench struct {
	cfg     config
	out     io.Writer
	rng     *rand.Rand
	regions []workload.Region // nil = the full suite
	golden  digests

	// tr is the tracer while a traced pass runs, nil otherwise; trace is
	// the run's tracer in a traced run.
	tr, trace *tracer

	setups            []float64
	passes, traced    []float64 // untraced and traced pass seconds
	heaps             []float64 // live heap MB after each pass
	attempted, failed int64
	digests           digests
	counts            map[string]float64   // per-layer counts of the workload
	samples           map[string][]float64 // diagnostics, see diagnostics
	statsDB           *eval.DB             // see newDB
}

func run(args []string, stdout, stderr io.Writer) int {
	start := time.Now()
	cfg, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	b := &bench{cfg: cfg, out: stdout, rng: rand.New(rand.NewSource(cfg.seed)), counts: map[string]float64{}, samples: map[string][]float64{}}
	if cfg.regions > 0 {
		all := workload.Regions()
		for i := 0; i < cfg.regions; i++ {
			b.regions = append(b.regions, all[i*len(all)/cfg.regions])
		}
	}
	if b.golden, err = loadGolden(); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if cfg.trace {
		b.trace = newTracer()
	}
	ctx := context.Background()
	if err := b.measure(ctx, workloads[cfg.workload]()); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	var metrics []metric
	if cfg.trace {
		if metrics, err = b.layerMetrics(ctx); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		b.trace.report(stdout)
		if err := b.trace.write(cfg.traceOut, cfg.workload, cfg.seed); err != nil {
			fmt.Fprintln(stderr, "bench: writing trace:", err)
			return 1
		}
		fmt.Fprintf(stdout, "spans written to %s\n", cfg.traceOut)
	} else {
		metrics = b.endToEndMetrics()
	}
	fmt.Fprintf(stdout, "workload %s seed %d: %.1f s in all\n", cfg.workload, cfg.seed, time.Since(start).Seconds())
	fmt.Fprintf(stdout, "pass s: %.4g  traced pass s: %.4g  set-ups: %d, median %.4g s\n", b.passes, b.traced, len(b.setups), median(b.setups))
	fmt.Fprintf(stdout, "digests: profiles=%s candidates=%s searches=%s served=%s\n",
		or(b.digests.Profiles, "-"), or(b.digests.Candidates, "-"), or(b.digests.Searches, "-"), or(b.digests.Served, "-"))
	if cfg.update {
		if err := b.digests.update(b.golden); err != nil {
			fmt.Fprintln(stderr, "bench: -update:", err)
			return 1
		}
		fmt.Fprintf(stdout, "digests written to %s\n", goldenPath)
	}
	fmt.Fprintf(stdout, "%-34s %16s  %s\n", "metric", "value", "unit")
	for _, m := range metrics {
		fmt.Fprintf(stdout, "%-34s %16.6g  %s\n", m.name, m.value, m.unit)
	}
	printed := map[string]bool{}
	for _, m := range metrics {
		printed[m.name] = true
	}
	for _, m := range b.diagnosticMetrics() {
		if !printed[m.name] {
			fmt.Fprintf(stdout, "%-34s %16.6g  %s (diagnostic)\n", m.name, m.value, m.unit)
		}
	}
	fmt.Fprintf(stdout, "%-34s %16.6g  %s\n", "error_rate", float64(b.failed)/float64(max(b.attempted, 1)), "ratio")
	res := struct {
		Correct   bool                  `json:"correct"`
		Attempted int64                 `json:"attempted"`
		Failed    int64                 `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{b.failed == 0 && b.attempted > 0, b.attempted, b.failed, map[string]jsonMetric{}}
	for _, m := range metrics {
		res.Metrics[m.name] = jsonMetric{m.value, m.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func or(s, def string) string {
	if s == "" {
		return def
	}
	return s
}

type metric struct {
	name  string
	value float64
	unit  string
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// measure runs the workload: prepare; then set-ups alone for warmUp or the
// measuring time, whichever is shorter, and at least minSetups of them,
// which brings the host's CPUs up to speed and samples set-up time; then
// set-up + pass while the next pass fits in the measuring time; then the
// final checks. A traced run alternates untraced and traced passes, the
// untraced ones the baseline of the tracing overhead.
func (b *bench) measure(ctx context.Context, w workloadImpl) error {
	if err := w.prepare(ctx, b); err != nil {
		return err
	}
	setup := func() error {
		t := time.Now()
		if err := w.setup(ctx, b); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		b.setups = append(b.setups, time.Since(t).Seconds())
		return nil
	}
	warm := min(warmUp, time.Duration(b.cfg.seconds*float64(time.Second)))
	for start := time.Now(); len(b.setups) < minSetups || time.Since(start) < warm; {
		if err := setup(); err != nil {
			return err
		}
	}
	minPasses := 1
	if b.cfg.trace {
		minPasses = 2
	}
	start := time.Now()
	for i := 0; ; i++ {
		next := median(append(append([]float64(nil), b.passes...), b.traced...)) + median(b.setups)
		if i >= minPasses && time.Since(start).Seconds()+next > b.cfg.seconds {
			break
		}
		if b.cfg.trace && i%2 == 1 {
			b.tr = b.trace
		}
		if err := setup(); err != nil {
			return err
		}
		t := time.Now()
		if err := w.pass(ctx, b); err != nil {
			return fmt.Errorf("pass %d: %w", i, err)
		}
		if d := time.Since(t).Seconds(); b.tr != nil {
			b.traced = append(b.traced, d)
		} else {
			b.passes = append(b.passes, d)
		}
		b.tr = nil
		b.heaps = append(b.heaps, liveHeapMB())
		if err := w.verify(ctx, b); err != nil {
			return fmt.Errorf("verify pass %d: %w", i, err)
		}
	}
	return w.finish(ctx, b)
}

// attempt counts one operation and, if err is not nil, its failure.
func (b *bench) attempt(err error) {
	b.attempted++
	if err != nil {
		b.failed++
		fmt.Fprintln(b.out, "FAIL:", err)
	}
}

// checkDigests compares freshly computed digests against the golden file
// (only on the full suite: the golden digests cover all 49 regions).
func (b *bench) checkDigests(d digests) {
	b.digests.merge(d)
	if b.regions != nil || b.cfg.update {
		return
	}
	var err error
	if mm := d.mismatches(b.golden); len(mm) > 0 {
		err = errors.New("golden mismatch: " + fmt.Sprint(mm))
	}
	b.attempt(err)
}

// newDB returns a fresh DB over the run's regions; the newest one is the
// DB whose stats a traced run reports.
func (b *bench) newDB() *eval.DB {
	db := explore.NewDB()
	if b.regions != nil {
		db.Regions = b.regions
	}
	b.statsDB = db
	return db
}

func (b *bench) endToEndMetrics() []metric {
	return []metric{
		{"pass_s", median(b.passes), "s"},
		{"setup_s", median(b.setups), "s"},
		{"heap_mb", median(b.heaps), "MB"},
	}
}

// liveHeapMB is the heap the pass's results still hold: the bytes live
// after a full collection, taken twice so sync.Pool victims are dropped.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// median of xs (0 for none).
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}
