package eval

import (
	"encoding/json"
	"fmt"

	"compisa/internal/store"
)

// Persister receives every freshly evaluated cacheable candidate: the
// write-through durability hook. Evaluations become durable incrementally
// as they complete, not only at checkpoint time, so a killed process loses
// at most the records its store had not yet fsynced.
//
// A persist failure never fails the evaluation — the result is already
// correct in memory; only its durability degraded. The DB counts the
// failure (Stats.PersistErrors), logs the edge transitions, and keeps
// serving. *CandidateStore is the production implementation;
// serve.StoreBreaker wraps one with circuit breaking.
type Persister interface {
	PutCandidate(key string, c *Candidate) error
}

// persist write-throughs one freshly won cache entry, with edge-triggered
// logging so a dead disk does not flood the log at evaluation rate.
func (db *DB) persist(key string, c *Candidate) {
	if db.Persist == nil {
		return
	}
	if err := db.Persist.PutCandidate(key, c); err != nil {
		db.Stats.PersistErrors.Inc()
		if !db.persistDown.Swap(true) {
			db.logf("eval: persist %s: %v (degrading to memory-only; further persist errors suppressed)", key, err)
		}
		return
	}
	db.Stats.Persisted.Inc()
	if db.persistDown.Swap(false) {
		db.logf("eval: persistence recovered")
	}
}

// CandidateStore adapts a *store.Store into the Persister seam: candidates
// serialize to JSON keyed by their cross-host DesignPoint.CacheKey, so any
// process (compose-explore, compose-serve, a future fleet of replicas) can
// warm-start from any other's log.
type CandidateStore struct {
	S *store.Store
}

// PutCandidate appends one evaluated candidate to the log.
func (cs *CandidateStore) PutCandidate(key string, c *Candidate) error {
	data, err := json.Marshal(c)
	if err != nil {
		return fmt.Errorf("eval: marshal candidate %s: %w", key, err)
	}
	return cs.S.Put(key, data)
}

// LoadInto warm-starts a DB from the store: every decodable record joins
// the candidate cache tier (Import's shape checks still apply, so a log
// written against a different region suite cannot poison the caches).
// Undecodable values are counted and skipped — record checksums make them
// near-impossible, but recovery must never abort a warm start.
func (cs *CandidateStore) LoadInto(db *DB) (loaded, skipped int, err error) {
	var cands []*Candidate
	err = cs.S.Range(func(key string, val []byte) error {
		var c Candidate
		if jerr := json.Unmarshal(val, &c); jerr != nil {
			skipped++
			db.logf("eval: store record %s undecodable, skipping: %v", key, jerr)
			return nil
		}
		cands = append(cands, &c)
		return nil
	})
	if err != nil {
		return 0, skipped, err
	}
	before := db.CachedCandidates()
	db.Import(State{Candidates: cands})
	return db.CachedCandidates() - before, skipped, nil
}
