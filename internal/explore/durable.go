// The durable lifecycle of one run: the JSON checkpoint and the profile
// store behind a DB are opened, warm-started from, written through and
// saved in one place, so compose-explore and compose-serve share the
// wiring and every exit path saves.

package explore

import (
	"context"
	"slices"
	"sync"

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
	// Store is the profile-store directory, one file per ISA key: the
	// profile tier warm-starts from it, and RunDurable installs it as
	// db.Persist, so every profile set is written through as it completes.
	// A store that cannot open leaves the run memory-only.
	Store string
}

// Durable is the open durable state RunDurable hands its body.
type Durable struct {
	path     string
	db       *DB
	restored *CheckpointState
	logf     func(format string, args ...any)

	mu sync.Mutex // serializes saves and guards s
	s  *Searcher
}

// RunDurable opens db's durable state, runs body, then saves the checkpoint
// whatever body returns. Opening restores the checkpoint into db (a
// corrupt file is quarantined, or an error under Strict, and then body
// does not run), installs the store as db.Persist and warm-starts the
// profile tier from it, writes the checkpoint's profile sets the store
// lacks through to it, and then re-scores the checkpoint's design points
// (no simulation). Restores, degradations and saves are reported to db.Log.
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
		d.restored = st
	}
	var cs *store.Store
	stored := map[string]bool{}
	if cfg.Store != "" {
		var err error
		if cs, err = store.Open(cfg.Store, store.Options{Log: db.Log}); err != nil {
			logf("[store %s unavailable, running memory-only: %v]", cfg.Store, err)
		} else {
			db.Persist = cs
			loaded, unreadable := 0, 0
			skipped, err := cs.Range(func(key string, val []byte) error {
				// A record the warm start cannot import is skipped like a
				// corrupt one.
				if db.ImportRecord(val) != nil {
					unreadable++
				} else {
					stored[key] = true
					loaded++
				}
				return nil
			})
			skipped += unreadable
			if err != nil {
				logf("[store warm-start: %v]", err)
			} else if loaded > 0 || skipped > 0 {
				logf("[reloaded %d profile sets from store %s (%d skipped)]", loaded, cfg.Store, skipped)
			}
		}
	}
	if st := d.restored; st != nil {
		db.Import(st.State)
		var missing []string
		for k := range st.Profiles {
			if cs != nil && !stored[k] {
				missing = append(missing, k)
			}
		}
		if len(missing) > 0 {
			// A run without the store (or an older store) wrote these:
			// fill the store in, so a store-only run need not simulate them.
			slices.Sort(missing)
			logf("[writing %d profile sets restored from %s through to store %s]", len(missing), cfg.Checkpoint, cfg.Store)
			db.WriteThrough(missing)
		}
		// With every profile source in, the re-score runs no simulation, so
		// it is brief enough to need no deadline.
		if err := db.Rescore(context.TODO(), st.Points); err != nil {
			return err
		}
		logf("[resumed from %s: %d ISA profile sets, %d design points, %d searches]",
			cfg.Checkpoint, len(st.Profiles), len(st.Points), len(st.Frontier))
	}
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
