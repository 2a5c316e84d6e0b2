package eval

import (
	"fmt"
	"sort"
	"strings"

	"compisa/internal/cpu"
)

// QuarantinedPair is one excluded (region, ISA) evaluation.
type QuarantinedPair struct {
	Region, ISA, Reason string
}

// Coverage summarizes evaluation completeness over every (region, ISA) pair
// attempted so far.
type Coverage struct {
	Evaluated, Total int
	Quarantined      []QuarantinedPair
}

func (c Coverage) String() string {
	return fmt.Sprintf("%d/%d profiles evaluated, %d quarantined", c.Evaluated, c.Total, len(c.Quarantined))
}

// Coverage reports how many (region, ISA) profiles were evaluated versus
// quarantined, with the quarantine list in deterministic order (ISA, then
// region).
func (db *DB) Coverage() Coverage {
	db.mu.Lock()
	defer db.mu.Unlock()
	cov := Coverage{Total: len(db.profiles) * len(db.Regions)}
	for key, reason := range db.quarantine {
		region, isaKey, _ := strings.Cut(key, "|")
		cov.Quarantined = append(cov.Quarantined, QuarantinedPair{Region: region, ISA: isaKey, Reason: reason})
	}
	sort.Slice(cov.Quarantined, func(i, j int) bool {
		a, b := cov.Quarantined[i], cov.Quarantined[j]
		if a.ISA != b.ISA {
			return a.ISA < b.ISA
		}
		return a.Region < b.Region
	})
	cov.Evaluated = cov.Total - len(cov.Quarantined)
	return cov
}

// State is the serializable slice of a DB: both cache tiers plus the
// quarantine list and pipeline stats. It is what checkpoints persist.
type State struct {
	// Profiles maps ISA key → per-region profiles (nil slot = quarantined).
	Profiles map[string][]*cpu.Profile `json:"profiles"`
	// Quarantine maps "region|isaKey" → failure reason.
	Quarantine map[string]string `json:"quarantine,omitempty"`
	// Candidates is the candidate cache tier; keys are re-derived from each
	// candidate's design point on import.
	Candidates []*Candidate `json:"candidates,omitempty"`
	// Ref is the memoized normalization basis (the x86-64 reference metrics).
	// Persisting it lets a warm-started process serve cached candidates
	// without first re-running the reference's model stage; it stays valid
	// across processes because evaluation is deterministic.
	Ref []Metric `json:"ref,omitempty"`
	// Stats accumulates pipeline statistics across checkpoint lineages.
	Stats StatsSnapshot `json:"stats,omitzero"`
}

// StatsSnapshot returns a point-in-time copy of the pipeline counters.
func (db *DB) StatsSnapshot() StatsSnapshot {
	return db.Stats.Snapshot()
}

// Export copies both cache tiers, the quarantine list, and the stats for
// checkpointing.
func (db *DB) Export() State {
	db.mu.Lock()
	st := State{
		Profiles:   make(map[string][]*cpu.Profile, len(db.profiles)),
		Quarantine: make(map[string]string, len(db.quarantine)),
		Candidates: make([]*Candidate, 0, len(db.cands)),
	}
	for k, v := range db.profiles {
		st.Profiles[k] = v
	}
	for k, v := range db.quarantine {
		st.Quarantine[k] = v
	}
	// Deterministic order keeps checkpoint files diffable.
	keys := make([]string, 0, len(db.cands))
	for k := range db.cands {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		st.Candidates = append(st.Candidates, db.cands[k])
	}
	st.Ref = db.ref
	db.mu.Unlock()
	st.Stats = db.StatsSnapshot()
	return st
}

// Import seeds the caches from a checkpoint and merges its stats into the
// live counters. Existing entries win so a live computation is never
// clobbered, and entries whose shape does not match the DB's region suite
// are skipped (a checkpoint from a different suite cannot poison the
// caches). Restored candidates stay valid across processes because
// evaluation is deterministic: the reference metrics they were normalized
// against are recomputed identically.
func (db *DB) Import(st State) {
	db.mu.Lock()
	for k, v := range st.Profiles {
		if _, ok := db.profiles[k]; !ok && len(v) == len(db.Regions) {
			db.profiles[k] = v
		}
	}
	for k, v := range st.Quarantine {
		if _, ok := db.quarantine[k]; !ok {
			db.quarantine[k] = v
		}
	}
	for _, c := range st.Candidates {
		if c == nil || len(c.M) != len(db.Regions) {
			continue
		}
		key := c.DP.CacheKey()
		if _, ok := db.cands[key]; !ok {
			db.cands[key] = c
		}
	}
	if db.ref == nil && len(st.Ref) == len(db.Regions) {
		db.ref = st.Ref
	}
	db.mu.Unlock()
	db.Stats.Merge(st.Stats)
}

// CachedCandidates reports the size of the candidate cache tier.
func (db *DB) CachedCandidates() int {
	db.mu.Lock()
	defer db.mu.Unlock()
	return len(db.cands)
}

// CandidateKeys returns the cache keys of every cached candidate, sorted.
// A serving layer warm-started from a checkpoint uses them to account
// requests for restored points as cache hits.
func (db *DB) CandidateKeys() []string {
	db.mu.Lock()
	keys := make([]string, 0, len(db.cands))
	for k := range db.cands {
		keys = append(keys, k)
	}
	db.mu.Unlock()
	sort.Strings(keys)
	return keys
}
