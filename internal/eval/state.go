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

// State is the run's position in a DB: the candidate tier's design points,
// without their metrics (Rescore recomputes those), and the pipeline stats.
// Profile sets are not part of it: each reaches the Persister as its own
// record as it completes (see Persister).
type State struct {
	// Points maps ISA key → the configurations of the candidate tier's
	// design points of that ISA, in cache-key order.
	Points map[string][]cpu.CoreConfig `json:"points,omitempty"`
	// Stats accumulates pipeline statistics across resumed runs.
	Stats StatsSnapshot `json:"stats,omitzero"`
}

// StatsSnapshot returns a point-in-time copy of the pipeline counters.
func (db *DB) StatsSnapshot() StatsSnapshot {
	return db.Stats.Snapshot()
}

// Export copies the candidate tier's design points, grouped per ISA key,
// and the stats.
func (db *DB) Export() State {
	db.mu.Lock()
	keys := make([]string, 0, len(db.cands))
	for k := range db.cands {
		keys = append(keys, k)
	}
	// Deterministic order keeps saved states diffable.
	sort.Strings(keys)
	st := State{Points: map[string][]cpu.CoreConfig{}}
	for _, k := range keys {
		dp := db.cands[k].DP
		isaKey := dp.ISA.Key()
		st.Points[isaKey] = append(st.Points[isaKey], dp.Cfg)
	}
	db.mu.Unlock()
	st.Stats = db.StatsSnapshot()
	return st
}

// Rescore refills the candidate tier with pts (ISA key → configurations),
// one batch per ISA against the DB's reference metrics; evaluation is
// deterministic, so each point gets the candidate it had before a restart.
// ISA keys that name no choice, and points whose profile set (or the
// reference's) is not in the profile tier, are skipped, so Rescore never
// simulates. Like ImportRecord it restores rather than evaluates: it counts
// nothing in db.Stats, whose restored snapshot already counts the work that
// scored these points.
func (db *DB) Rescore(ctx context.Context, pts map[string][]cpu.CoreConfig) error {
	keys := make([]string, 0, len(pts))
	for k := range pts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var choices []ISAChoice
	db.mu.Lock()
	for _, k := range keys {
		if c, ok := ChoiceByKey(k); ok && db.profiles[k] != nil {
			choices = append(choices, c)
		}
	}
	haveRef := db.profiles[X8664Choice().Key()] != nil
	db.mu.Unlock()
	if !haveRef || len(choices) == 0 {
		return nil
	}
	ref, err := db.reference(ctx, false)
	if err != nil {
		return err
	}
	_, err = par.Map(ctx, len(choices), 0, func(i int) ([]*Candidate, error) {
		return db.evaluateBatch(ctx, choices[i], pts[choices[i].Key()], ref, false)
	})
	return err
}

// CandidateKeys returns the cache keys of every cached candidate, sorted.
// A serving layer warm-started from a saved run uses them to account
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
