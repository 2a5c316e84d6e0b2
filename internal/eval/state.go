package eval

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"compisa/internal/cpu"
	"compisa/internal/par"
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

// State is the serializable slice of a DB: the profile tier, the quarantine
// list, the candidate tier's design points and the pipeline stats. It is
// what checkpoints persist; its one-ISA-key slice is a Persister record.
type State struct {
	// Profiles maps ISA key → per-region profiles (nil slot = quarantined).
	Profiles map[string][]*cpu.Profile `json:"profiles"`
	// Quarantine maps "region|isaKey" → failure reason.
	Quarantine map[string]string `json:"quarantine,omitempty"`
	// Points lists the candidate tier's design points without their metrics
	// (Rescore recomputes those).
	Points []DesignPoint `json:"points,omitempty"`
	// Stats accumulates pipeline statistics across checkpoint lineages.
	Stats StatsSnapshot `json:"stats,omitzero"`
}

// StatsSnapshot returns a point-in-time copy of the pipeline counters.
func (db *DB) StatsSnapshot() StatsSnapshot {
	return db.Stats.Snapshot()
}

// Export copies the profile tier, the quarantine list, the candidate
// tier's design points and the stats for checkpointing.
func (db *DB) Export() State {
	db.mu.Lock()
	st := State{
		Profiles:   make(map[string][]*cpu.Profile, len(db.profiles)),
		Quarantine: make(map[string]string, len(db.quarantine)),
		Points:     make([]DesignPoint, 0, len(db.cands)),
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
		st.Points = append(st.Points, db.cands[k].DP)
	}
	db.mu.Unlock()
	st.Stats = db.StatsSnapshot()
	return st
}

// Import seeds the profile tier and the quarantine list and merges the
// stats into the live counters; Points are left to Rescore. Existing
// entries win so a live computation is never clobbered, and profile sets
// whose shape does not match the DB's region suite are skipped (a checkpoint
// from a different suite cannot poison the caches).
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
	db.mu.Unlock()
	db.Stats.Merge(st.Stats)
}

// Rescore refills the candidate tier with pts, one EvaluateBatch per ISA
// against the DB's reference metrics; evaluation is deterministic, so each
// point gets the candidate it had before a restart. Points whose profile
// set (or the reference's) is not in the profile tier are skipped, so
// Rescore never simulates.
func (db *DB) Rescore(ctx context.Context, pts []DesignPoint) error {
	cfgs := map[string][]cpu.CoreConfig{}
	var choices []ISAChoice
	db.mu.Lock()
	for _, dp := range pts {
		if k := dp.ISA.Key(); db.profiles[k] != nil {
			if cfgs[k] == nil {
				choices = append(choices, dp.ISA)
			}
			cfgs[k] = append(cfgs[k], dp.Cfg)
		}
	}
	haveRef := db.profiles[X8664Choice().Key()] != nil
	db.mu.Unlock()
	if !haveRef || len(choices) == 0 {
		return nil
	}
	ref, err := db.ReferenceMetrics(ctx)
	if err != nil {
		return err
	}
	_, err = par.Map(ctx, len(choices), 0, func(i int) ([]*Candidate, error) {
		return db.EvaluateBatch(ctx, choices[i], cfgs[choices[i].Key()], ref)
	})
	return err
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
