// Tests for the durable lifecycle (RunDurable): checkpoint and store
// round trip, corrupt checkpoints, an unopenable store, and the save and
// close that follow a failing body.

package explore

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"compisa/internal/eval"
	"compisa/internal/store"
)

// logLines collects DB.Log output.
type logLines struct {
	mu    sync.Mutex
	lines []string
}

func (l *logLines) logf(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.lines = append(l.lines, fmt.Sprintf(format, args...))
}

func (l *logLines) has(sub string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, line := range l.lines {
		if strings.Contains(line, sub) {
			return true
		}
	}
	return false
}

func durableFiles(t *testing.T) Durability {
	dir := t.TempDir()
	return Durability{Checkpoint: filepath.Join(dir, "dse.ckpt"), Store: filepath.Join(dir, "cands.log")}
}

// loggedDB is smallDB(n, nil) logging to log.
func loggedDB(n int, log *logLines) *DB {
	db := smallDB(n, nil)
	db.Log = log.logf
	return db
}

// durableSearch runs the test search the way compose-explore wires a run:
// the store's persister on the DB and the Searcher resumed from d.
func durableSearch(d *Durable, db *DB) (CMP, error) {
	ctx := context.Background()
	db.Persist = d.Persist
	s, err := NewSearcher(ctx, db)
	if err != nil {
		return CMP{}, err
	}
	d.Resume(s)
	return s.Search(ctx, OrgCompositeFixed, ObjMPThroughput, Budget{AreaMM2: 64})
}

// TestDurableRoundTrip: a run's checkpoint and store restore a second run's
// candidates and frontier, whose search then scores nothing anew; the
// store alone restores every candidate.
func TestDurableRoundTrip(t *testing.T) {
	var log logLines
	cfg := durableFiles(t)
	db1 := loggedDB(3, &log)
	var want CMP
	if err := RunDurable(db1, cfg, func(d *Durable) (err error) {
		want, err = durableSearch(d, db1)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	cands := db1.CachedCandidates()
	if cands == 0 || !log.has("[checkpoint saved to "+cfg.Checkpoint+"]") {
		t.Fatalf("first run: %d candidates, log %q", cands, log.lines)
	}

	check := func(name string, cfg Durability, frontier int) {
		t.Helper()
		db := loggedDB(3, &log)
		if err := RunDurable(db, cfg, func(d *Durable) error {
			if got := db.CachedCandidates(); got != cands {
				t.Errorf("%s: restored %d candidates, want %d", name, got, cands)
			}
			db.Persist = d.Persist
			s, err := NewSearcher(context.Background(), db)
			if err != nil {
				return err
			}
			d.Resume(s)
			if got := len(s.exportFrontier()); got != frontier {
				t.Errorf("%s: restored %d searches, want %d", name, got, frontier)
			}
			evals := db.Stats.ModelEvals.Load()
			got, err := s.Search(context.Background(), OrgCompositeFixed, ObjMPThroughput, Budget{AreaMM2: 64})
			if err != nil {
				return err
			}
			if n := db.Stats.ModelEvals.Load() - evals; n != 0 {
				t.Errorf("%s: the search over restored points ran %d model evaluations", name, n)
			}
			if got.Score != want.Score {
				t.Errorf("%s: score %v, want %v", name, got.Score, want.Score)
			}
			return nil
		}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	check("checkpoint and store", cfg, 1)
	if !log.has(fmt.Sprintf("[resumed from %s: 3 ISA profile sets, %d candidates, 1 searches]", cfg.Checkpoint, cands)) {
		t.Errorf("second run did not report its checkpoint: %q", log.lines)
	}
	check("store only", Durability{Store: cfg.Store}, 0)
	if !log.has(fmt.Sprintf("[reloaded %d candidates from store %s (0 skipped)]", cands, cfg.Store)) {
		t.Errorf("third run did not report its store: %q", log.lines)
	}
}

// TestDurableCorruptCheckpoint: a corrupt checkpoint is quarantined and the
// run starts cold, or, under Strict, fails before its body runs.
func TestDurableCorruptCheckpoint(t *testing.T) {
	garbage := []byte(`{"version": 4, "profiles": {tru`)
	var log logLines
	cfg := durableFiles(t)
	cfg.Store = ""
	if err := os.WriteFile(cfg.Checkpoint, garbage, 0o644); err != nil {
		t.Fatal(err)
	}

	strict := cfg
	strict.Strict = true
	err := RunDurable(smallDB(1, nil), strict, func(*Durable) error {
		t.Error("body ran on a corrupt checkpoint under Strict")
		return nil
	})
	if !errors.Is(err, ErrCheckpointCorrupt) {
		t.Fatalf("strict: %v, want ErrCheckpointCorrupt", err)
	}
	if data, err := os.ReadFile(cfg.Checkpoint); err != nil || string(data) != string(garbage) {
		t.Fatalf("strict open touched the checkpoint: %v", err)
	}

	db := loggedDB(1, &log)
	if err := RunDurable(db, cfg, func(*Durable) error {
		if db.CachedCandidates() != 0 {
			t.Error("a quarantined checkpoint restored candidates")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if data, err := os.ReadFile(cfg.Checkpoint + ".corrupt"); err != nil || string(data) != string(garbage) {
		t.Fatalf("corrupt bytes not kept at %s.corrupt: %v", cfg.Checkpoint, err)
	}
	if !log.has("[corrupt checkpoint quarantined to " + cfg.Checkpoint + ".corrupt; starting cold]") {
		t.Errorf("quarantine not logged: %q", log.lines)
	}
	if st, err := LoadCheckpoint(cfg.Checkpoint); err != nil || st == nil {
		t.Fatalf("the exit save left no loadable checkpoint: %v", err)
	}
}

// TestDurableStoreUnavailable: a store that cannot open leaves the run
// memory-only, with no persister and no error.
func TestDurableStoreUnavailable(t *testing.T) {
	var log logLines
	cfg := durableFiles(t)
	cfg.Checkpoint = ""
	if err := os.WriteFile(cfg.Store, []byte("not a candidate store\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	ran := false
	if err := RunDurable(loggedDB(1, &log), cfg, func(d *Durable) error {
		ran = true
		if d.Persist != nil {
			t.Error("an unopenable store produced a persister")
		}
		return nil
	}); err != nil || !ran {
		t.Fatalf("RunDurable = %v (body ran: %v), want a memory-only run", err, ran)
	}
	if !log.has("[store " + cfg.Store + " unavailable, running memory-only: ") {
		t.Errorf("memory-only fallback not logged: %q", log.lines)
	}
}

// TestDurableSavesOnError: a body that fails still gets its checkpoint saved
// (frontier included) and its store closed, and RunDurable returns its error.
func TestDurableSavesOnError(t *testing.T) {
	var log logLines
	cfg := durableFiles(t)
	db := loggedDB(3, &log)
	boom := errors.New("boom")
	var cs *store.Store
	err := RunDurable(db, cfg, func(d *Durable) error {
		if _, err := durableSearch(d, db); err != nil {
			return err
		}
		cs = d.Persist.(*eval.CandidateStore).S
		// The search autosaved; only the exit save can write it again.
		if err := os.Remove(cfg.Checkpoint); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("RunDurable = %v, want the body's error", err)
	}
	st, err := LoadCheckpoint(cfg.Checkpoint)
	if err != nil || st == nil {
		t.Fatalf("no checkpoint after a failing body: %v", err)
	}
	if len(st.Frontier) != 1 || len(st.Candidates) != db.CachedCandidates() {
		t.Errorf("checkpoint holds %d searches and %d candidates, want 1 and %d",
			len(st.Frontier), len(st.Candidates), db.CachedCandidates())
	}
	if err := cs.Put("k", nil); !errors.Is(err, store.ErrClosed) {
		t.Errorf("store still open after a failing body: Put = %v", err)
	}
}
