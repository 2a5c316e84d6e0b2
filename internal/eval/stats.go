package eval

import (
	"fmt"
	"reflect"
	"strings"

	"compisa/internal/metrics"
)

// Stats instruments the evaluation pipeline: per-stage work counters and
// duration histograms, plus hit/miss counters for the three cache tiers. All
// fields are lock-free and safe for concurrent use; a DB carries one Stats
// and must not be copied. Tags declare /metrics; keep families contiguous.
type Stats struct {
	// Stage work (ModelEvals: one per live region per design point; Execs:
	// one per real functional simulation, so simulation-tier hits and
	// joins are not counted).
	Compiles   metrics.Counter `metric:"compisa_eval_stage_total" labels:"stage=compile" help:"Pipeline stage executions."`
	Verifies   metrics.Counter `metric:"compisa_eval_stage_total" labels:"stage=verify" help:"Pipeline stage executions."`
	Execs      metrics.Counter `metric:"compisa_eval_stage_total" labels:"stage=exec" help:"Pipeline stage executions."`
	ModelEvals metrics.Counter `metric:"compisa_eval_stage_total" labels:"stage=model" help:"Pipeline stage executions."`
	// Cache tiers: profile (ISA key), sim (program digest; attempts with
	// an injected fault bypass it) and candidate (ISA key, canonical
	// config).
	ProfileHits     metrics.Counter `metric:"compisa_eval_cache_total" labels:"tier=profile,outcome=hit" help:"Cache tier outcomes."`
	ProfileMisses   metrics.Counter `metric:"compisa_eval_cache_total" labels:"tier=profile,outcome=miss" help:"Cache tier outcomes."`
	SimHits         metrics.Counter `metric:"compisa_eval_cache_total" labels:"tier=sim,outcome=hit" help:"Cache tier outcomes."`
	SimMisses       metrics.Counter `metric:"compisa_eval_cache_total" labels:"tier=sim,outcome=miss" help:"Cache tier outcomes."`
	CandidateHits   metrics.Counter `metric:"compisa_eval_cache_total" labels:"tier=candidate,outcome=hit" help:"Cache tier outcomes."`
	CandidateMisses metrics.Counter `metric:"compisa_eval_cache_total" labels:"tier=candidate,outcome=miss" help:"Cache tier outcomes."`
	// VerifyFindings counts conformance violations the verification stage
	// found (every one turns the evaluation into a StageVerify fault, so a
	// non-zero count on a clean compiler is a codegen bug).
	VerifyFindings metrics.Counter `metric:"compisa_eval_verify_findings_total" help:"Conformance violations found by the verify stage."`
	// Fault handling.
	Retries         metrics.Counter `metric:"compisa_eval_retries_total" help:"Faulted stages retried."`
	Quarantines     metrics.Counter `metric:"compisa_eval_quarantines_total" help:"(region, ISA) pairs quarantined."`
	DegradedRegions metrics.Counter `metric:"compisa_eval_degraded_regions_total" help:"Regions scored at the quarantine penalties."`
	// Durable tier (the write-through Persist hook: one write per completed
	// profile set).
	Persisted     metrics.Counter `metric:"compisa_eval_persisted_total" help:"Profile sets written through to the durable store."`
	PersistErrors metrics.Counter `metric:"compisa_eval_persist_errors_total" help:"Profile-set write-throughs that failed."`
	// Stage timings (ModelTime: one per candidate, all regions).
	CompileTime metrics.Histogram `metric:"compisa_eval_stage_duration_seconds" labels:"stage=compile" help:"Stage timings."`
	VerifyTime  metrics.Histogram `metric:"compisa_eval_stage_duration_seconds" labels:"stage=verify" help:"Stage timings."`
	ExecTime    metrics.Histogram `metric:"compisa_eval_stage_duration_seconds" labels:"stage=exec" help:"Stage timings."`
	ModelTime   metrics.Histogram `metric:"compisa_eval_stage_duration_seconds" labels:"stage=model" help:"Stage timings."`
}

// StatsSnapshot is a point-in-time, serializable copy of Stats; it rides in
// checkpoint files so pipeline statistics accumulate across resumed runs.
type StatsSnapshot struct {
	Compiles        int64 `json:"compiles"`
	Verifies        int64 `json:"verifies,omitempty"`
	VerifyFindings  int64 `json:"verify_findings,omitempty"`
	Execs           int64 `json:"execs"`
	ModelEvals      int64 `json:"model_evals"`
	ProfileHits     int64 `json:"profile_hits"`
	ProfileMisses   int64 `json:"profile_misses"`
	SimHits         int64 `json:"sim_hits,omitempty"`
	SimMisses       int64 `json:"sim_misses,omitempty"`
	CandidateHits   int64 `json:"candidate_hits"`
	CandidateMisses int64 `json:"candidate_misses"`
	Retries         int64 `json:"retries"`
	Quarantines     int64 `json:"quarantines"`
	DegradedRegions int64 `json:"degraded_regions"`
	Persisted       int64 `json:"persisted,omitempty"`
	PersistErrors   int64 `json:"persist_errors,omitempty"`

	CompileTime metrics.HistogramSnapshot `json:"compile_time"`
	VerifyTime  metrics.HistogramSnapshot `json:"verify_time,omitempty"`
	ExecTime    metrics.HistogramSnapshot `json:"exec_time"`
	ModelTime   metrics.HistogramSnapshot `json:"model_time"`
}

// Snapshot copies the current counters and histograms.
func (s *Stats) Snapshot() StatsSnapshot { return metrics.Snapshot[StatsSnapshot](s) }

// Merge adds a snapshot's counts into the live stats (checkpoint resume).
func (s *Stats) Merge(sn StatsSnapshot) { metrics.Merge(s, sn) }

// IsZero reports whether the snapshot records no activity at all (used to
// keep empty stats out of checkpoint files).
func (sn StatsSnapshot) IsZero() bool { return reflect.ValueOf(sn).IsZero() }

// Format renders the snapshot for `compose-explore -stats`: per-stage
// counts and timings plus cache hit rates per tier.
func (sn StatsSnapshot) Format() string {
	var sb strings.Builder
	sb.WriteString("evaluation pipeline stats\n")
	fmt.Fprintf(&sb, "  compile stage:    %8d passes   %s\n", sn.Compiles, sn.CompileTime)
	if sn.Verifies > 0 {
		fmt.Fprintf(&sb, "  verify stage:     %8d checks   %s  (%d findings)\n",
			sn.Verifies, sn.VerifyTime, sn.VerifyFindings)
	}
	fmt.Fprintf(&sb, "  exec stage:       %8d runs     %s\n", sn.Execs, sn.ExecTime)
	fmt.Fprintf(&sb, "  model stage:      %8d evals    %s\n", sn.ModelEvals, sn.ModelTime)
	fmt.Fprintf(&sb, "  profile cache:    %8d hits %8d misses  (%s hit rate)\n",
		sn.ProfileHits, sn.ProfileMisses, metrics.Rate(sn.ProfileHits, sn.ProfileMisses))
	if sn.SimHits > 0 || sn.SimMisses > 0 {
		fmt.Fprintf(&sb, "  sim cache:        %8d hits %8d misses  (%s hit rate)\n",
			sn.SimHits, sn.SimMisses, metrics.Rate(sn.SimHits, sn.SimMisses))
	}
	fmt.Fprintf(&sb, "  candidate cache:  %8d hits %8d misses  (%s hit rate)\n",
		sn.CandidateHits, sn.CandidateMisses, metrics.Rate(sn.CandidateHits, sn.CandidateMisses))
	fmt.Fprintf(&sb, "  fault handling:   %8d retries %6d quarantines %6d degraded regions\n",
		sn.Retries, sn.Quarantines, sn.DegradedRegions)
	if sn.Persisted > 0 || sn.PersistErrors > 0 {
		fmt.Fprintf(&sb, "  durable store:    %8d persisted %6d persist errors\n",
			sn.Persisted, sn.PersistErrors)
	}
	return sb.String()
}
