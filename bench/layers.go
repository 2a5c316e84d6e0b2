package main

import (
	"context"
	"fmt"
	"time"

	"compisa/internal/check"
	"compisa/internal/code"
	"compisa/internal/compiler"
	"compisa/internal/cpu"
	"compisa/internal/eval"
	"compisa/internal/explore"
	"compisa/internal/ir"
	"compisa/internal/mem"
	"compisa/internal/perfmodel"
	"compisa/internal/power"
	"compisa/internal/workload"
)

// replayStats are the sub-model estimates and simulated statistics of one
// serial replay.
type replayStats struct {
	pairs                          int
	cache, pred, uop               time.Duration
	instrs, uops, branches         int64
	loads, stores, l1dMiss, l2Miss int64
}

// replay walks every distinct (ISA key, region) pair once, serially, with
// the calls eval makes to profile and score it, one span per call:
// Region.Build → compiler.Compile → check.Analyze → cpu.Predecode →
// cpu.RunPredecoded (no consumer) → cpu.CollectProfileOpts →
// perfmodel.NewScorer + Scorer.Cycles per configuration → power.Energy per
// configuration. A third execution captures the event stream and replays it
// through the public cache, predictor and micro-op cache models, which
// estimates how the profiler's own time splits.
func (b *bench) replay(ctx context.Context) (replayStats, error) {
	var rs replayStats
	tr := b.trace
	regions := b.regions
	if regions == nil {
		regions = workload.Regions()
	}
	cfgs := explore.Configs()
	perfs := make([]perfmodel.Result, len(cfgs))
	ropts := cpu.RunOptions{MaxInstrs: eval.MaxRegionInstrs, Interrupt: ctx.Err}
	mdl := newModels()
	for _, key := range eval.ChoiceKeys() {
		c, _ := eval.ChoiceByKey(key)
		traits := c.Traits()
		for _, r := range regions {
			pair := tr.begin("replay.pair", -1, tr.newOp())
			step := func(name string, fn func() error) error {
				id := tr.begin(name, pair, 0)
				defer tr.end(id)
				if err := fn(); err != nil {
					return fmt.Errorf("replay %s on %s: %s: %w", r.Name, key, name, err)
				}
				return nil
			}
			var (
				prog *code.Program
				pd   *cpu.Predecoded
				p    *cpu.Profile
				sc   *perfmodel.Scorer
				f    *ir.Func
				m    *mem.Memory
			)
			err := step("workload.build", func() (err error) { f, m, err = r.Build(c.FS.Width); return err })
			if err == nil {
				err = step("compiler.compile", func() (err error) {
					opts := compiler.Options{Verify: compiler.VerifyOff}
					if c.Vendor != nil {
						opts.Target = c.Vendor.Target
					}
					prog, err = compiler.Compile(f, c.FS, opts)
					return err
				})
			}
			if err == nil {
				prog.Name = r.Name
				err = step("check.analyze", func() error { return check.Analyze(prog).Err() })
			}
			if err == nil {
				err = step("cpu.predecode", func() error { pd = cpu.Predecode(prog); return nil })
			}
			if err == nil {
				st := cpu.NewState(m.Clone())
				err = step("cpu.exec", func() (err error) { _, err = cpu.RunPredecoded(pd, st, ropts, nil); return err })
			}
			if err == nil {
				mc := m.Clone()
				err = step("cpu.collect_profile", func() (err error) { p, _, err = cpu.CollectProfileOpts(prog, mc, ropts); return err })
			}
			if err == nil {
				err = mdl.run(pd, m, ropts) // the last run may consume m
			}
			if err == nil {
				err = step("perfmodel.score", func() (err error) {
					if sc, err = perfmodel.NewScorer(p); err != nil {
						return err
					}
					for i, cfg := range cfgs {
						if perfs[i], err = sc.Cycles(cfg); err != nil {
							return err
						}
					}
					return nil
				})
			}
			if err == nil {
				err = step("power.energy", func() error {
					for i, cfg := range cfgs {
						power.Energy(traits, cfg, p, perfs[i])
					}
					return nil
				})
			}
			tr.end(pair)
			if err != nil {
				return rs, err
			}
			rs.pairs++
			rs.instrs += p.Instrs
			rs.uops += p.Uops
			rs.branches += p.Branches
			rs.loads += p.Loads
			rs.stores += p.Stores
			ref := p.Mem[0][0][0] // 32KB L1s, 4MB L2
			rs.l1dMiss += ref.L1DMisses
			rs.l2Miss += ref.L2Misses
		}
	}
	rs.cache, rs.pred, rs.uop = mdl.cache, mdl.pred, mdl.uop
	return rs, nil
}

// models are the profiler's component models, fed from a captured event
// stream in chunks and timed per model.
type models struct {
	l1i, l1d [2]*cpu.Cache
	l2       [2][2][2]*cpu.Cache
	preds    [cpu.NumPredictors]cpu.Predictor
	uc       *cpu.UopCache
	buf      []cpu.Event
	instrs   []code.Instr
	lastLine uint64

	cache, pred, uop time.Duration
}

func newModels() *models {
	m := &models{uc: cpu.NewUopCache(), buf: make([]cpu.Event, 0, 1<<16)}
	for i := 0; i < 2; i++ {
		m.l1i[i] = cpu.NewCache(cpu.L1IOptions[i])
		m.l1d[i] = cpu.NewCache(cpu.L1DOptions[i])
		for d := 0; d < 2; d++ {
			for l := 0; l < 2; l++ {
				m.l2[i][d][l] = cpu.NewCache(cpu.L2Options[l])
			}
		}
	}
	return m
}

// run executes the program once more, feeding its events to the models.
func (m *models) run(pd *cpu.Predecoded, image *mem.Memory, ropts cpu.RunOptions) error {
	for i := 0; i < 2; i++ {
		m.l1i[i].Reset()
		m.l1d[i].Reset()
		for d := 0; d < 2; d++ {
			for l := 0; l < 2; l++ {
				m.l2[i][d][l].Reset()
			}
		}
	}
	for k := range m.preds {
		m.preds[k] = cpu.NewPredictor(cpu.PredictorKind(k)) // no public reset
	}
	m.uc.Reset()
	m.lastLine = 0
	m.instrs = pd.P.Instrs
	_, err := cpu.RunPredecoded(pd, cpu.NewState(image), ropts, func(ev *cpu.Event) {
		m.buf = append(m.buf, *ev)
		if len(m.buf) == cap(m.buf) {
			m.flush()
		}
	})
	m.flush()
	return err
}

// flush replays the buffered events through each model in turn, as the
// profiler's Consume does per event: the fetch-line filter and the data
// access into the shared L1 options and the eight L2s, the three
// predictors on conditional branches, and the micro-op cache.
func (m *models) flush() {
	evs := m.buf
	t := time.Now()
	for i := range evs {
		ev := &evs[i]
		line := uint64(ev.PC) / 64
		newLine := line != m.lastLine
		m.lastLine = line
		data := (ev.IsLoad || ev.IsStore) && !ev.PredOff
		if !newLine && !data {
			continue
		}
		var hitI, hitD [2]bool
		for k := 0; k < 2; k++ {
			if newLine {
				hitI[k] = m.l1i[k].Access(uint64(ev.PC))
			}
			if data {
				hitD[k] = m.l1d[k].Access(ev.MemAddr)
			}
		}
		for i := 0; i < 2; i++ {
			for d := 0; d < 2; d++ {
				for l := 0; l < 2; l++ {
					if newLine && !hitI[i] {
						m.l2[i][d][l].Access(uint64(ev.PC))
					}
					if data && !hitD[d] {
						m.l2[i][d][l].Access(ev.MemAddr)
					}
				}
			}
		}
	}
	m.cache += time.Since(t)
	t = time.Now()
	for i := range evs {
		ev := &evs[i]
		if m.instrs[ev.Idx].Op != code.JCC {
			continue
		}
		for _, p := range m.preds {
			p.Predict(ev.PC)
			p.Update(ev.PC, ev.Taken)
		}
	}
	m.pred += time.Since(t)
	t = time.Now()
	for i := range evs {
		m.uc.Access(evs[i].PC, int(evs[i].Uops))
	}
	m.uop += time.Since(t)
	m.buf = m.buf[:0]
}

// layerMetrics runs the replay and assembles the per-layer metrics of a
// traced run. Counts of the workload are per pass.
func (b *bench) layerMetrics(ctx context.Context) ([]metric, error) {
	rs, err := b.replay(ctx)
	if err != nil {
		return nil, err
	}
	st := b.trace.stats()
	total := func(name string) float64 {
		if s := st[name]; s != nil {
			return s.Total.Seconds()
		}
		return 0
	}
	exec := total("cpu.exec")
	profile := total("cpu.collect_profile") - total("cpu.predecode") - exec
	models := (rs.cache + rs.pred + rs.uop).Seconds()
	perInstr := func(sec float64) float64 { return sec * 1e9 / float64(max(rs.instrs, 1)) }
	out := []metric{
		{"workload.build_s", total("workload.build"), "s"},
		{"compiler.compile_s", total("compiler.compile"), "s"},
		{"check.analyze_s", total("check.analyze"), "s"},
		{"cpu.predecode_s", total("cpu.predecode"), "s"},
		{"cpu.exec_s", exec, "s"},
		{"cpu.exec_ns_per_instr", perInstr(exec), "ns"},
		{"cpu.profile_s", profile, "s"},
		{"cpu.profile_ns_per_instr", perInstr(profile), "ns"},
		{"cpu.profile.cache_s", rs.cache.Seconds(), "s"},
		{"cpu.profile.predictor_s", rs.pred.Seconds(), "s"},
		{"cpu.profile.uopcache_s", rs.uop.Seconds(), "s"},
		{"cpu.profile.other_s", profile - models, "s"},
		{"perfmodel.score_s", total("perfmodel.score"), "s"},
		{"power.energy_s", total("power.energy"), "s"},
		{"sim.instrs", float64(rs.instrs), "count"},
		{"sim.uops", float64(rs.uops), "count"},
		{"sim.branches", float64(rs.branches), "count"},
		{"sim.loads", float64(rs.loads), "count"},
		{"sim.stores", float64(rs.stores), "count"},
		{"sim.l1d_misses", float64(rs.l1dMiss), "count"},
		{"sim.l2_misses", float64(rs.l2Miss), "count"},
	}
	sn := b.statsDB.StatsSnapshot()
	out = append(out,
		metric{"eval.profile_misses", float64(sn.ProfileMisses), "count"},
		metric{"eval.candidate_misses", float64(sn.CandidateMisses), "count"},
		metric{"eval.model_evals", float64(sn.ModelEvals), "count"},
	)
	passes := float64(len(b.passes) + len(b.traced))
	for _, name := range layerCounts {
		out = append(out, metric{name, b.counts[name] / passes, "count"})
	}
	out = append(out, metric{"serve.warm_rps", median(b.samples["serve.warm_rps"]), "1/s"})
	overhead := 100 * (median(b.traced) - median(b.passes)) / median(b.passes)
	return append(out, metric{"trace.overhead_pct", overhead, "%"}), nil
}

// layerCounts are the per-pass counts a workload reports; a workload that
// does not use a layer reports 0 for its counts.
var layerCounts = []string{
	"explore.search_count", "explore.search_candidates",
	"serve.hits", "serve.misses", "serve.cold", "serve.non200",
}

// diagnostics are printed but not gated: the serving latencies by request
// class and the warm throughput, the MP/ST split of the search time, the
// sweep's simulation rate and the peak RSS. Each is noisier than a bound
// can hold on a shared host, or redundant with a gated metric.
var diagnostics = []struct {
	sample, name string
	q            float64 // quantile of the samples
	unit         string
}{
	{"serve.cold", "serve.cold_p50_ms", 0.5, "ms"},
	{"serve.warm", "serve.warm_p50_ms", 0.5, "ms"},
	{"serve.warm", "serve.warm_p99_ms", 0.99, "ms"},
	{"serve.hit", "serve.hit_p50_ms", 0.5, "ms"},
	{"serve.miss", "serve.miss_p50_ms", 0.5, "ms"},
	{"serve.warm_rps", "serve.warm_rps", 0.5, "1/s"},
	{"search.mp", "search.mp_s", 0.5, "s"},
	{"search.st", "search.st_s", 0.5, "s"},
	{"sim_mips", "sim_mips", 0.5, "Minstr/s"},
}

// diagnosticMetrics evaluates the diagnostics this run has samples for.
func (b *bench) diagnosticMetrics() []metric {
	var out []metric
	for _, d := range diagnostics {
		if xs := b.samples[d.sample]; len(xs) > 0 {
			out = append(out, metric{d.name, quantile(xs, d.q), d.unit})
		}
	}
	return append(out, metric{"peak_rss_mb", peakRSSMB(), "MB"})
}

// sample records one value of a diagnostic.
func (b *bench) sample(name string, v float64) {
	b.samples[name] = append(b.samples[name], v)
}
