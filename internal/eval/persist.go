package eval

import (
	"encoding/json"
	"errors"
	"fmt"

	"compisa/internal/cpu"
)

// Persister receives every completed profile set once, keyed by ISA key:
// the write-through durability hook. The record is a profileRecord (the set
// plus its quarantine entries) as JSON; ImportRecord reads it back.
// Candidates, a ~10 µs function of a profile set and a configuration, are
// never persisted.
//
// A persist failure never fails the evaluation — the profiles are already
// correct in memory; only their durability degraded. The DB counts the
// failure (Stats.PersistErrors), logs the edge transitions, reports them
// through PersistDegraded, and keeps serving. A store writes at most one
// record per ISA key per process, so a dead disk costs a few failed
// writes, not a failing write per request. *store.Store, one atomically
// written file per ISA key, is the production implementation.
type Persister interface {
	Put(key string, val []byte) error
}

// PersistDegraded reports whether the latest write-through failed: the DB
// serves from memory while fresh profile sets are not durable. The next
// successful write clears it.
func (db *DB) PersistDegraded() bool { return db.persistDown.Load() }

// profileRecord is one Persister record: one ISA key's profile set (nil
// slot = quarantined) and the quarantine entries ("region|isaKey" →
// failure reason) of its nil slots.
type profileRecord struct {
	Profiles   map[string][]*cpu.Profile `json:"profiles"`
	Quarantine map[string]string         `json:"quarantine,omitempty"`
}

// persist write-throughs one freshly computed profile set, with
// edge-triggered logging so a dead disk does not flood the log.
func (db *DB) persist(key string, ps []*cpu.Profile) {
	if db.Persist == nil {
		return
	}
	rec := profileRecord{Profiles: map[string][]*cpu.Profile{key: ps}, Quarantine: map[string]string{}}
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

// ImportRecord warm-starts the profile tier and the quarantine list from
// one Persister record. Existing entries win, so a live computation is never
// clobbered, and a profile set whose shape does not match the DB's region
// suite is skipped (a record from a different suite cannot poison the
// caches). A value that is not a profile-set record, such as a whole
// candidate from a log the older candidate store wrote, is an error.
func (db *DB) ImportRecord(val []byte) error {
	var rec profileRecord
	if err := json.Unmarshal(val, &rec); err != nil {
		return fmt.Errorf("eval: undecodable profile-set record: %w", err)
	}
	if len(rec.Profiles) == 0 {
		return errors.New("eval: record holds no profile set")
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	for k, v := range rec.Profiles {
		if _, ok := db.profiles[k]; !ok && len(v) == len(db.Regions) {
			db.profiles[k] = v
		}
	}
	for k, v := range rec.Quarantine {
		if _, ok := db.quarantine[k]; !ok {
			db.quarantine[k] = v
		}
	}
	return nil
}
