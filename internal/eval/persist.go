package eval

import (
	"encoding/json"
	"errors"
	"fmt"

	"compisa/internal/cpu"
)

// Persister receives every completed profile set once, keyed by ISA key:
// the write-through durability hook. The record is the one-ISA-key slice of
// State (the set plus its quarantine entries) as JSON; ImportRecord reads it
// back. Candidates, a ~10 µs function of a profile set and a configuration,
// are never persisted.
//
// A persist failure never fails the evaluation — the profiles are already
// correct in memory; only their durability degraded. The DB counts the
// failure (Stats.PersistErrors), logs the edge transitions, and keeps
// serving. *store.Store is the production implementation;
// serve.StoreBreaker wraps one with circuit breaking.
type Persister interface {
	Put(key string, val []byte) error
}

// persist write-throughs one freshly computed profile set, with
// edge-triggered logging so a dead disk does not flood the log.
func (db *DB) persist(key string, ps []*cpu.Profile) {
	if db.Persist == nil {
		return
	}
	rec := State{Profiles: map[string][]*cpu.Profile{key: ps}, Quarantine: map[string]string{}}
	db.mu.Lock()
	for i, p := range ps {
		if p == nil {
			pk := pairKey(db.Regions[i].Name, key)
			rec.Quarantine[pk] = db.quarantine[pk]
		}
	}
	db.mu.Unlock()
	data, err := json.Marshal(rec)
	if err == nil {
		err = db.Persist.Put(key, data)
	}
	if err != nil {
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

// ImportRecord warm-starts the profile tier from one Persister record
// through Import and its shape checks. A value that is not a profile-set
// record, such as a whole candidate from a log the older candidate store
// wrote, is an error.
func (db *DB) ImportRecord(val []byte) error {
	var st State
	if err := json.Unmarshal(val, &st); err != nil {
		return fmt.Errorf("eval: undecodable profile-set record: %w", err)
	}
	if len(st.Profiles) == 0 {
		return errors.New("eval: record holds no profile set")
	}
	db.Import(st)
	return nil
}
