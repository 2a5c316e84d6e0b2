package eval

import (
	"fmt"
	"strings"

	"compisa/internal/metrics"
)

// Stats instruments the evaluation pipeline: per-stage work counters and
// duration histograms, plus hit/miss counters for both cache tiers. All
// fields are lock-free and safe for concurrent use; a DB carries one Stats
// and must not be copied.
type Stats struct {
	// Profiling stage.
	Compiles metrics.Counter // region builds + backend compilations attempted
	Verifies metrics.Counter // static-conformance verifications run
	Execs    metrics.Counter // functional executions attempted
	// VerifyFindings counts conformance violations the verification stage
	// found (every one turns the evaluation into a StageVerify fault, so a
	// non-zero count on a clean compiler is a codegen bug).
	VerifyFindings metrics.Counter
	// Scoring stage.
	ModelEvals metrics.Counter // perfmodel evaluations (one per live region per design point)
	// Cache tiers.
	ProfileHits, ProfileMisses     metrics.Counter // profile tier (ISA key)
	CandidateHits, CandidateMisses metrics.Counter // candidate tier (ISA key, canonical config)
	// Fault handling.
	Retries         metrics.Counter
	Quarantines     metrics.Counter
	DegradedRegions metrics.Counter // regions scored at the Policy penalties
	// Durable tier (the write-through Persist hook).
	Persisted     metrics.Counter // candidates written through to the store
	PersistErrors metrics.Counter // write-throughs that failed (durability degraded)
	// Stage timings.
	CompileTime metrics.Histogram // successful build+compile passes
	VerifyTime  metrics.Histogram // static-conformance verification passes
	ExecTime    metrics.Histogram // successful functional executions
	ModelTime   metrics.Histogram // per-candidate scoring passes (all regions)
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
func (s *Stats) Snapshot() StatsSnapshot {
	return StatsSnapshot{
		Compiles:        s.Compiles.Load(),
		Verifies:        s.Verifies.Load(),
		VerifyFindings:  s.VerifyFindings.Load(),
		Execs:           s.Execs.Load(),
		ModelEvals:      s.ModelEvals.Load(),
		ProfileHits:     s.ProfileHits.Load(),
		ProfileMisses:   s.ProfileMisses.Load(),
		CandidateHits:   s.CandidateHits.Load(),
		CandidateMisses: s.CandidateMisses.Load(),
		Retries:         s.Retries.Load(),
		Quarantines:     s.Quarantines.Load(),
		DegradedRegions: s.DegradedRegions.Load(),
		Persisted:       s.Persisted.Load(),
		PersistErrors:   s.PersistErrors.Load(),
		CompileTime:     s.CompileTime.Snapshot(),
		VerifyTime:      s.VerifyTime.Snapshot(),
		ExecTime:        s.ExecTime.Snapshot(),
		ModelTime:       s.ModelTime.Snapshot(),
	}
}

// Merge adds a snapshot's counts into the live stats (checkpoint resume).
func (s *Stats) Merge(sn StatsSnapshot) {
	s.Compiles.Add(sn.Compiles)
	s.Verifies.Add(sn.Verifies)
	s.VerifyFindings.Add(sn.VerifyFindings)
	s.Execs.Add(sn.Execs)
	s.ModelEvals.Add(sn.ModelEvals)
	s.ProfileHits.Add(sn.ProfileHits)
	s.ProfileMisses.Add(sn.ProfileMisses)
	s.CandidateHits.Add(sn.CandidateHits)
	s.CandidateMisses.Add(sn.CandidateMisses)
	s.Retries.Add(sn.Retries)
	s.Quarantines.Add(sn.Quarantines)
	s.DegradedRegions.Add(sn.DegradedRegions)
	s.Persisted.Add(sn.Persisted)
	s.PersistErrors.Add(sn.PersistErrors)
	s.CompileTime.Merge(sn.CompileTime)
	s.VerifyTime.Merge(sn.VerifyTime)
	s.ExecTime.Merge(sn.ExecTime)
	s.ModelTime.Merge(sn.ModelTime)
}

// IsZero reports whether the snapshot records no activity at all (used to
// keep empty stats out of checkpoint files).
func (sn StatsSnapshot) IsZero() bool {
	return sn.Compiles == 0 && sn.Verifies == 0 && sn.VerifyFindings == 0 &&
		sn.Execs == 0 && sn.ModelEvals == 0 &&
		sn.ProfileHits == 0 && sn.ProfileMisses == 0 &&
		sn.CandidateHits == 0 && sn.CandidateMisses == 0 &&
		sn.Retries == 0 && sn.Quarantines == 0 && sn.DegradedRegions == 0 &&
		sn.Persisted == 0 && sn.PersistErrors == 0 &&
		sn.CompileTime.Count == 0 && sn.VerifyTime.Count == 0 &&
		sn.ExecTime.Count == 0 && sn.ModelTime.Count == 0
}

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
