// The durable lifecycle of one run: the JSON checkpoint and the append-only
// candidate store behind a DB are opened, warm-started from, written
// through and saved in one place, so compose-explore and compose-serve
// share the wiring and every exit path saves and closes.

package explore

import (
	"sync"

	"compisa/internal/eval"
	"compisa/internal/store"
)

// Durability names a run's durable files; either may be empty.
type Durability struct {
	// Checkpoint is the JSON checkpoint: restored at open, saved by
	// Durable.Save and once more at exit.
	Checkpoint string
	// Strict fails the open on a corrupt checkpoint instead of quarantining
	// it to <Checkpoint>.corrupt and starting cold.
	Strict bool
	// Store is the append-only candidate store: the candidate cache
	// warm-starts from it, and Durable.Persist writes fresh evaluations
	// through to it. A store that cannot open leaves the run memory-only.
	Store string
}

// Durable is the open durable state RunDurable hands its body.
type Durable struct {
	// Persist writes fresh candidates through to the store; nil when no
	// store is open. The caller installs it (or a wrapper) as db.Persist.
	Persist eval.Persister

	path     string
	db       *DB
	restored *CheckpointState
	logf     func(format string, args ...any)

	mu sync.Mutex // serializes saves and guards s
	s  *Searcher
}

// RunDurable opens db's durable state, runs body, then saves the checkpoint
// and closes the store whatever body returns. Opening restores the
// checkpoint into db (a corrupt file is quarantined, or an error under
// Strict, and then body does not run) and warm-starts the candidate cache
// from the store. Restores, degradations and saves are reported to db.Log.
// RunDurable returns body's error.
func RunDurable(db *DB, cfg Durability, body func(d *Durable) error) error {
	logf := db.Log
	if logf == nil {
		logf = func(string, ...any) {}
	}
	d := &Durable{path: cfg.Checkpoint, db: db, logf: logf}
	if cfg.Checkpoint != "" {
		st, err := openCheckpoint(cfg.Checkpoint, cfg.Strict, logf)
		if err != nil {
			return err
		}
		if st != nil {
			st.RestoreDB(db)
			logf("[resumed from %s: %d ISA profile sets, %d candidates, %d searches]",
				cfg.Checkpoint, len(st.Profiles), len(st.Candidates), len(st.Frontier))
		}
		d.restored = st
	}
	if cfg.Store != "" {
		cs, err := store.Open(cfg.Store, store.Options{Log: db.Log})
		if err != nil {
			logf("[store %s unavailable, running memory-only: %v]", cfg.Store, err)
		} else {
			defer func() {
				if err := cs.Close(); err != nil {
					logf("store close: %v", err)
				}
			}()
			adapter := &eval.CandidateStore{S: cs}
			loaded, skipped, err := adapter.LoadInto(db)
			if err != nil {
				logf("[store warm-start: %v]", err)
			} else if loaded > 0 || skipped > 0 {
				logf("[reloaded %d candidates from store %s (%d skipped)]", loaded, cfg.Store, skipped)
			}
			d.Persist = adapter
		}
	}
	// Deferred after the store's Close, so it runs before it.
	defer func() {
		if d.path != "" && d.save() {
			logf("[checkpoint saved to %s]", d.path)
		}
	}()
	return body(d)
}

// Resume seeds s's search frontier from the restored checkpoint, includes
// the frontier in every later save and saves after each newly completed
// search (replacing s.OnSearchDone).
func (d *Durable) Resume(s *Searcher) {
	d.restored.RestoreSearcher(s)
	d.mu.Lock()
	d.s = s
	d.mu.Unlock()
	s.OnSearchDone = d.Save
}

// Save writes the checkpoint now (a no-op without one). A failed save is
// logged, not returned: the run goes on and the next save retries.
func (d *Durable) Save() {
	if d.path != "" {
		d.save()
	}
}

func (d *Durable) save() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := SaveCheckpoint(d.path, Snapshot(d.db, d.s)); err != nil {
		d.logf("checkpoint: %v", err)
		return false
	}
	return true
}
