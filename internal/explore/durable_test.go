// Tests for the durable lifecycle (RunDurable): checkpoint and store
// round trip, corrupt checkpoints, an unopenable store, and the save and
// close that follow a failing body.

package explore

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

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
// profile sets and frontier without a simulation, its only model
// evaluations the re-score of the checkpoint's points, after which the
// search scores nothing anew. The store alone restores every profile set,
// so even a configuration never evaluated before needs no compile and no
// simulation.
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
	cands, sets := len(db1.CandidateKeys()), len(db1.Export().Profiles)
	if cands == 0 || !log.has("[checkpoint saved to "+cfg.Checkpoint+"]") {
		t.Fatalf("first run: %d candidates, log %q", cands, log.lines)
	}
	saved, err := LoadCheckpoint(cfg.Checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	fresh := want.Cores[0].DP
	fresh.Cfg.LSQ = 3
	if slices.Contains(db1.CandidateKeys(), fresh.CacheKey()) {
		t.Fatalf("%s was evaluated by the first run", fresh)
	}

	// check reopens on cfg, counting from the stats the files restore
	// (base): the open re-scores the rescored points and nothing else, the
	// search over them scores nothing anew, and nothing compiles or
	// simulates, the fresh configuration included.
	check := func(name string, cfg Durability, base StatsSnapshot, frontier, rescored int) {
		t.Helper()
		db := loggedDB(3, &log)
		if err := RunDurable(db, cfg, func(d *Durable) error {
			evals := db.Stats.ModelEvals.Load() - base.ModelEvals
			if rescored > 0 && evals != int64(3*(rescored+1)) {
				t.Errorf("%s: the open ran %d model evaluations, want the re-score of %d points and the reference",
					name, evals, rescored)
			}
			if got := len(db.CandidateKeys()); got != rescored {
				t.Errorf("%s: restored %d candidates, want %d", name, got, rescored)
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
			evals = db.Stats.ModelEvals.Load()
			got, err := s.Search(context.Background(), OrgCompositeFixed, ObjMPThroughput, Budget{AreaMM2: 64})
			if err != nil {
				return err
			}
			if n := db.Stats.ModelEvals.Load() - evals; rescored > 0 && n != 0 {
				t.Errorf("%s: the search over re-scored points ran %d model evaluations", name, n)
			}
			if got.Score != want.Score {
				t.Errorf("%s: score %v, want %v", name, got.Score, want.Score)
			}
			misses := db.Stats.CandidateMisses.Load()
			if _, err := db.Evaluate(context.Background(), fresh, s.ref); err != nil {
				return err
			}
			if db.Stats.CandidateMisses.Load() != misses+1 {
				t.Errorf("%s: %s did not score anew", name, fresh)
			}
			if n := db.Stats.Compiles.Load() - base.Compiles + db.Stats.Execs.Load() - base.Execs; n != 0 {
				t.Errorf("%s: the reopened run compiled or simulated %d times", name, n)
			}
			return nil
		}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	check("checkpoint and store", cfg, saved.Stats, 1, cands)
	if !log.has(fmt.Sprintf("[resumed from %s: %d ISA profile sets, %d design points, 1 searches]", cfg.Checkpoint, sets, cands)) {
		t.Errorf("second run did not report its checkpoint: %q", log.lines)
	}
	check("store only", Durability{Store: cfg.Store}, StatsSnapshot{}, 0, 0)
	if !log.has(fmt.Sprintf("[reloaded %d profile sets from store %s (0 skipped)]", sets, cfg.Store)) {
		t.Errorf("third run did not report its store: %q", log.lines)
	}
}

// TestDurableLegacyCandidates: a version 4 checkpoint written while
// candidates were still persisted carries "candidates" and "ref" blocks;
// it loads with its profile sets and frontier restored and both blocks
// ignored.
func TestDurableLegacyCandidates(t *testing.T) {
	var log logLines
	cfg := durableFiles(t)
	cfg.Store = ""
	db1 := loggedDB(3, &log)
	var cmp CMP
	if err := RunDurable(db1, cfg, func(d *Durable) (err error) {
		cmp, err = durableSearch(d, db1)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	sets := len(db1.Export().Profiles)
	ref, err := db1.ReferenceMetrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(cfg.Checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	// Rewrite the file the way the older writer laid it out: whole
	// candidates and the reference metrics in place of the points.
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	delete(doc, "points")
	if doc["candidates"], err = json.Marshal(cmp.Cores); err != nil {
		t.Fatal(err)
	}
	if doc["ref"], err = json.Marshal(ref); err != nil {
		t.Fatal(err)
	}
	if data, err = json.Marshal(doc); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(cfg.Checkpoint, data, 0o644); err != nil {
		t.Fatal(err)
	}

	db := loggedDB(3, &log)
	if err := RunDurable(db, cfg, func(d *Durable) error {
		if n := len(db.CandidateKeys()); n != 0 {
			t.Errorf("the legacy candidate block restored %d candidates", n)
		}
		s, err := NewSearcher(context.Background(), db)
		if err != nil {
			return err
		}
		d.Resume(s)
		if got := len(s.exportFrontier()); got != 1 {
			t.Errorf("restored %d searches, want 1", got)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !log.has(fmt.Sprintf("[resumed from %s: %d ISA profile sets, 0 design points, 1 searches]", cfg.Checkpoint, sets)) {
		t.Errorf("legacy checkpoint not restored: %q", log.lines)
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
		if len(db.CandidateKeys()) != 0 {
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
		cs = d.Persist.(*store.Store)
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
	if len(st.Frontier) != 1 || len(st.Points) != len(db.CandidateKeys()) {
		t.Errorf("checkpoint holds %d searches and %d design points, want 1 and %d",
			len(st.Frontier), len(st.Points), len(db.CandidateKeys()))
	}
	if err := cs.Put("k", nil); !errors.Is(err, store.ErrClosed) {
		t.Errorf("store still open after a failing body: Put = %v", err)
	}
}
