// The durable lifecycle of one run: the store directory behind a DB is
// opened, warm-started from, written through and saved in one place, so
// compose-explore and compose-serve share the wiring and every exit path
// saves. The directory is the run's only durable state. It holds one
// record per profile set, keyed by ISA key and written through by the DB as
// each set completes, and one run record (runKey): the candidate tier's
// design points, the pipeline stats and the search frontier, rewritten by
// every Durable.Save that changes it: compose-explore's after each
// experiment, and RunDurable's at exit. A hard kill therefore loses no
// simulation, only the searches of the experiment it interrupts, which a
// resume recomputes from the restored profile sets and design points.
// Every record shares the store's framing, checksum and version gate, so a
// damaged run record is skipped and counted like any other, and the run
// resumes from the profile records alone.

package explore

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync"

	"compisa/internal/eval"
	"compisa/internal/metrics"
	"compisa/internal/store"
)

// runKey is the store key of the run record. ISA keys are "vendor:<name>"
// or a feature-set short name such as "x86-16D-64W-P", so none equals it.
const runKey = "run"

// SavedSearch records one completed multicore search as its four design
// points; resume re-evaluates the points against the restored caches,
// which reproduces the exact cores (evaluation is deterministic).
type SavedSearch struct {
	Score  float64        `json:"score"`
	Points [4]DesignPoint `json:"points"`
}

// runRecord is the run record's value, as JSON: the DB's exported state
// (design points grouped per ISA key, and stats) plus the search frontier.
type runRecord struct {
	eval.State
	Frontier map[string]SavedSearch `json:"frontier,omitempty"`
}

// decodeRunRecord parses a run record. A stats block holding a negative
// count, sum or bucket cannot come from a run and is an error.
func decodeRunRecord(val []byte) (*runRecord, error) {
	var rec runRecord
	if err := json.Unmarshal(val, &rec); err != nil {
		return nil, fmt.Errorf("undecodable run record: %w", err)
	}
	if err := metrics.CheckSnapshot(rec.Stats); err != nil {
		return nil, fmt.Errorf("run record: %w", err)
	}
	return &rec, nil
}

// Durable is the open durable state RunDurable hands its body.
type Durable struct {
	st   *store.Store // nil: memory-only
	db   *DB
	logf func(format string, args ...any)

	mu sync.Mutex // serializes saves and guards s and frontier
	s  *Searcher
	// frontier is the restored search frontier, saved as it was until
	// Resume hands it to a Searcher.
	frontier map[string]SavedSearch
	// saved is the run record this Durable last wrote; a save that would
	// write the same bytes again writes nothing.
	saved []byte
}

// RunDurable opens db's durable state in the store directory dir (none
// when dir is empty), runs body, then saves the run record whatever body
// returns. Opening installs the store as db.Persist, imports every
// profile-set record, and then applies the run record: its stats merge
// into db.Stats and its design points are re-scored (no simulation). A
// store that cannot open leaves the run memory-only. Restores,
// degradations and saves are reported to db.Log. RunDurable returns body's
// error.
func RunDurable(db *DB, dir string, body func(d *Durable) error) error {
	logf := db.Log
	if logf == nil {
		logf = func(string, ...any) {}
	}
	d := &Durable{db: db, logf: logf}
	if dir != "" {
		if err := d.open(dir); err != nil {
			return err
		}
	}
	defer func() {
		if d.save() {
			logf("[run saved to store %s]", dir)
		}
	}()
	return body(d)
}

// open opens the store at dir and restores db from it: the profile-set
// records first, then the run record, whatever order Range returns them in.
func (d *Durable) open(dir string) error {
	db, logf := d.db, d.logf
	st, err := store.Open(dir, store.Options{Log: db.Log})
	if err != nil {
		logf("[store %s unavailable, running memory-only: %v]", dir, err)
		return nil
	}
	d.st = st
	db.Persist = st
	var run []byte
	loaded, rejected := 0, 0
	reject := func(key string, err error) {
		rejected++
		logf("store: skipped %q in %s: %v", key, dir, err)
	}
	skipped, err := st.Range(func(key string, val []byte) error {
		if key == runKey {
			run = val
		} else if err := db.ImportRecord(val); err != nil {
			reject(key, err)
		} else {
			loaded++
		}
		return nil
	})
	var rec *runRecord
	if run != nil {
		var derr error
		if rec, derr = decodeRunRecord(run); derr != nil {
			reject(runKey, derr)
		}
	}
	skipped += rejected
	if err != nil {
		logf("[store warm-start: %v]", err)
	} else if loaded > 0 || skipped > 0 {
		logf("[reloaded %d profile sets from store %s (%d skipped)]", loaded, dir, skipped)
	}
	if rec == nil {
		return nil
	}
	db.Stats.Merge(rec.Stats)
	// With every profile set in, the re-score runs no simulation, so it is
	// brief enough to need no deadline.
	if err := db.Rescore(context.TODO(), rec.Points); err != nil {
		return err
	}
	d.frontier = rec.Frontier
	points := 0
	for _, cfgs := range rec.Points {
		points += len(cfgs)
	}
	logf("[resumed from store %s: %d design points, %d searches]", dir, points, len(rec.Frontier))
	return nil
}

// Resume seeds s's search frontier from the restored run record and
// includes s's frontier in every later save.
func (d *Durable) Resume(s *Searcher) {
	d.mu.Lock()
	defer d.mu.Unlock()
	s.importFrontier(d.frontier)
	d.s, d.frontier = s, nil
}

// Save writes the run record now (a no-op without a store, or when the
// record is unchanged since this Durable last wrote it); the driver calls
// it where the run changes phase, and RunDurable once more at exit. A
// failed save is logged, not returned: the run goes on and the next save
// retries.
func (d *Durable) Save() { d.save() }

// save reports whether the store holds the current run record.
func (d *Durable) save() bool {
	if d.st == nil {
		return false
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	rec := runRecord{State: d.db.Export(), Frontier: d.frontier}
	if d.s != nil {
		rec.Frontier = d.s.exportFrontier()
	}
	data, err := json.Marshal(rec)
	if err == nil && bytes.Equal(data, d.saved) {
		return true
	}
	if err == nil {
		err = d.st.Put(runKey, data)
	}
	if err != nil {
		d.logf("store: save run record: %v", err)
		return false
	}
	d.saved = data
	return true
}
