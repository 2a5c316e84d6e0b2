// Tests for the durable lifecycle (RunDurable): the store directory's round
// trip, a run killed between profile-set writes and its next run-record
// save, a run record with a flipped byte, an unopenable store, when the run
// record is written, and the save that follows a failing body.

package explore

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"net/url"
	"os"
	"path/filepath"
	"reflect"
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

func (l *logLines) has(sub string) bool { return l.count(sub) > 0 }

// count reports how many lines contain sub.
func (l *logLines) count(sub string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, line := range l.lines {
		if strings.Contains(line, sub) {
			n++
		}
	}
	return n
}

// storeDir names a fresh, not yet created store directory.
func storeDir(t *testing.T) string { return filepath.Join(t.TempDir(), "store") }

// runFile is the path of dir's run-record file.
func runFile(dir string) string { return filepath.Join(dir, url.QueryEscape(runKey)+".rec") }

// readRunRecord decodes dir's run record.
func readRunRecord(t *testing.T, dir string) *runRecord {
	t.Helper()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var rec *runRecord
	if _, err := st.Range(func(key string, val []byte) error {
		if key == runKey {
			rec, err = decodeRunRecord(val)
		}
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if rec == nil {
		t.Fatalf("%s holds no run record", dir)
	}
	return rec
}

// frame renders one record file in the store's framing with the given
// payload version: an 8-byte magic, then uint32le payloadLen | uint32le
// crc32c(payload) | version(1) | uint32le keyLen | key | value. The earlier
// single-file store laid its log out the same way.
func frame(version byte, key string, val []byte) []byte {
	payload := binary.LittleEndian.AppendUint32([]byte{version}, uint32(len(key)))
	payload = append(append(payload, key...), val...)
	rec := binary.LittleEndian.AppendUint32([]byte("CPSTOR1\n"), uint32(len(payload)))
	rec = binary.LittleEndian.AppendUint32(rec, crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
	return append(rec, payload...)
}

// plantRun writes data as dir's run-record file, creating dir.
func plantRun(t *testing.T, dir string, data []byte) {
	t.Helper()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(runFile(dir), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// loggedDB is smallDB(n, nil) logging to log.
func loggedDB(n int, log *logLines) *DB {
	db := smallDB(n, nil)
	db.Log = log.logf
	return db
}

// durableSearch runs the test search the way compose-explore wires a run:
// the Searcher resumed from d.
func durableSearch(d *Durable, db *DB) (CMP, error) {
	ctx := context.Background()
	s, err := NewSearcher(ctx, db)
	if err != nil {
		return CMP{}, err
	}
	d.Resume(s)
	return s.Search(ctx, OrgCompositeFixed, ObjMPThroughput, Budget{AreaMM2: 64})
}

// TestDurableRoundTrip: a run's store directory restores a second run's
// profile sets, design points, stats and frontier without a simulation and
// without counting the re-score of the run record's points, so the restored
// stats equal the saved ones; the search then scores nothing anew. The profile records alone restore
// every profile set, so even a configuration never evaluated before needs
// no compile and no simulation.
func TestDurableRoundTrip(t *testing.T) {
	var log logLines
	dir := storeDir(t)
	db1 := loggedDB(3, &log)
	var want CMP
	if err := RunDurable(db1, dir, func(d *Durable) (err error) {
		want, err = durableSearch(d, db1)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	cands := len(db1.CandidateKeys())
	if cands == 0 || !log.has("[run saved to store "+dir+"]") {
		t.Fatalf("first run: %d candidates, log %q", cands, log.lines)
	}
	saved, sets := readRunRecord(t, dir), db1.Stats.Persisted.Load()
	fresh := want.Cores[0].DP
	fresh.Cfg.LSQ = 3
	if slices.Contains(db1.CandidateKeys(), fresh.CacheKey()) {
		t.Fatalf("%s was evaluated by the first run", fresh)
	}

	// check reopens on dir, counting from the stats the run record restores
	// (base): the open re-scores the rescored points and counts nothing, the
	// search over them scores nothing anew, and nothing compiles or
	// simulates, the fresh configuration included.
	check := func(name string, base StatsSnapshot, frontier, rescored int) {
		t.Helper()
		db := loggedDB(3, &log)
		if err := RunDurable(db, dir, func(d *Durable) error {
			if got := db.StatsSnapshot(); !reflect.DeepEqual(got, base) {
				t.Errorf("%s: the open moved the restored stats:\n got %+v\nwant %+v", name, got, base)
			}
			if got := len(db.CandidateKeys()); got != rescored {
				t.Errorf("%s: restored %d candidates, want %d", name, got, rescored)
			}
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
	check("run record and profile records", saved.Stats, 1, cands)
	reloaded := fmt.Sprintf("[reloaded %d profile sets from store %s (0 skipped)]", sets, dir)
	if !log.has(reloaded) || !log.has(fmt.Sprintf("[resumed from store %s: %d design points, 1 searches]", dir, cands)) {
		t.Errorf("second run did not report its store: %q", log.lines)
	}
	if err := os.Remove(runFile(dir)); err != nil {
		t.Fatal(err)
	}
	check("profile records only", StatsSnapshot{}, 0, 0)
	if log.count(reloaded) != 2 {
		t.Errorf("third run did not report its store: %q", log.lines)
	}
}

// TestDurableKilledBeforeRunSave: a run killed after some profile-set writes
// and before its next run-record save leaves a run record that lacks those
// sets' points; the next run resumes from the older run record with every
// stored set, and evaluating the sets written after it compiles and
// simulates nothing.
func TestDurableKilledBeforeRunSave(t *testing.T) {
	var log logLines
	dir := storeDir(t)
	db1 := loggedDB(3, &log)
	var older []byte
	var vendorSets int
	if err := RunDurable(db1, dir, func(d *Durable) (err error) {
		// The search ends a phase of the run, as an experiment does.
		if _, err := durableSearch(d, db1); err != nil {
			return err
		}
		d.Save()
		if older, err = os.ReadFile(runFile(dir)); err != nil {
			return err
		}
		before := db1.Stats.Persisted.Load()
		s, err := NewSearcher(context.Background(), db1)
		if err != nil {
			return err
		}
		_, err = s.Candidates(context.Background(), OrgHeteroVendor)
		vendorSets = int(db1.Stats.Persisted.Load() - before)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if vendorSets == 0 {
		t.Fatal("the vendor candidates wrote no profile set")
	}
	// The kill: the disk holds every profile set written, and the run record
	// as saved after the search, before the vendor candidates existed.
	if err := os.WriteFile(runFile(dir), older, 0o644); err != nil {
		t.Fatal(err)
	}
	base := readRunRecord(t, dir).Stats

	db := loggedDB(3, &log)
	if err := RunDurable(db, dir, func(d *Durable) error {
		s, err := NewSearcher(context.Background(), db)
		if err != nil {
			return err
		}
		d.Resume(s)
		if got := len(s.exportFrontier()); got != 1 {
			t.Errorf("restored %d searches, want 1", got)
		}
		if _, err := s.Candidates(context.Background(), OrgHeteroVendor); err != nil {
			return err
		}
		if n := db.Stats.Compiles.Load() - base.Compiles + db.Stats.Execs.Load() - base.Execs; n != 0 {
			t.Errorf("the resumed run compiled or simulated %d times", n)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if n := db.Stats.Persisted.Load() - base.Persisted; n != 0 {
		t.Errorf("the resumed run wrote %d profile sets anew", n)
	}
	if !log.has(fmt.Sprintf("[reloaded %d profile sets from store %s (0 skipped)]", int(db1.Stats.Persisted.Load()), dir)) {
		t.Errorf("resumed run did not reload every stored set: %q", log.lines)
	}
}

// TestDurableCorruptCheckpoint: a run record with one flipped byte is
// skipped, counted and logged; the profile records still load, so the run
// starts from them alone without a simulation, and the exit save heals the
// record.
func TestDurableCorruptCheckpoint(t *testing.T) {
	var log logLines
	dir := storeDir(t)
	db1 := loggedDB(3, &log)
	if err := RunDurable(db1, dir, func(d *Durable) error {
		_, err := durableSearch(d, db1)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	sets := int(db1.Stats.Persisted.Load())
	data, err := os.ReadFile(runFile(dir))
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	plantRun(t, dir, data)

	db := loggedDB(3, &log)
	if err := RunDurable(db, dir, func(d *Durable) error {
		if n := len(db.CandidateKeys()); n != 0 {
			t.Errorf("a damaged run record restored %d candidates", n)
		}
		if !db.StatsSnapshot().IsZero() {
			t.Errorf("a damaged run record restored stats %+v", db.StatsSnapshot())
		}
		_, err := durableSearch(d, db)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if !log.has(fmt.Sprintf("[reloaded %d profile sets from store %s (1 skipped)]", sets, dir)) {
		t.Errorf("the damaged run record was not counted: %q", log.lines)
	}
	if n := db.Stats.Compiles.Load() + db.Stats.Execs.Load(); n != 0 {
		t.Errorf("the run on the profile records compiled or simulated %d times", n)
	}
	if rec := readRunRecord(t, dir); len(rec.Frontier) != 1 {
		t.Errorf("the healed run record holds %d searches, want 1", len(rec.Frontier))
	}
}

// TestDurableStoreUnavailable: a store path that is a file, a foreign one
// or a log the earlier single-file store wrote, cannot open: the run goes
// memory-only, with no persister and no error, and the file is left as it
// was.
func TestDurableStoreUnavailable(t *testing.T) {
	for name, content := range map[string][]byte{
		"foreign":    []byte("not a candidate store\n"),
		"single-log": frame(1, "x86-16D-64W-P", []byte(`{"Profiles":{}}`)),
	} {
		var log logLines
		dir := storeDir(t)
		if err := os.WriteFile(dir, content, 0o644); err != nil {
			t.Fatal(err)
		}
		db := loggedDB(1, &log)
		ran := false
		if err := RunDurable(db, dir, func(d *Durable) error {
			ran = true
			if db.Persist != nil {
				t.Errorf("%s: an unopenable store produced a persister", name)
			}
			_, err := NewSearcher(context.Background(), db)
			return err
		}); err != nil || !ran {
			t.Fatalf("%s: RunDurable = %v (body ran: %v), want a memory-only run", name, err, ran)
		}
		if !log.has("[store " + dir + " unavailable, running memory-only: ") {
			t.Errorf("%s: memory-only fallback not logged: %q", name, log.lines)
		}
		if got, err := os.ReadFile(dir); err != nil || string(got) != string(content) {
			t.Errorf("%s: the store path was altered: %v", name, err)
		}
	}
}

// TestDurableSaveCadence: a completed search reaches the on-disk run
// record only at the next Durable.Save, not as it completes; the exit save
// writes the searches completed since, and nothing when the record is
// unchanged since the last save.
func TestDurableSaveCadence(t *testing.T) {
	var log logLines
	dir := storeDir(t)
	db := loggedDB(3, &log)
	ctx := context.Background()
	if err := RunDurable(db, dir, func(d *Durable) error {
		s, err := NewSearcher(ctx, db)
		if err != nil {
			return err
		}
		d.Resume(s)
		if _, err := s.Search(ctx, OrgCompositeFixed, ObjMPThroughput, Budget{AreaMM2: 64}); err != nil {
			return err
		}
		if _, err := os.Stat(runFile(dir)); !errors.Is(err, fs.ErrNotExist) {
			t.Errorf("a completed search wrote the run record before Save (stat: %v)", err)
		}
		d.Save()
		if n := len(readRunRecord(t, dir).Frontier); n != 1 {
			t.Errorf("Save wrote %d searches, want 1", n)
		}
		if _, err := s.Search(ctx, OrgCompositeFixed, ObjMPThroughput, Budget{AreaMM2: 48}); err != nil {
			return err
		}
		if n := len(readRunRecord(t, dir).Frontier); n != 1 {
			t.Errorf("a completed search rewrote the run record: %d searches, want 1", n)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if n := len(readRunRecord(t, dir).Frontier); n != 2 {
		t.Errorf("the exit save wrote %d searches, want 2", n)
	}
	// A run whose last Save left nothing to change: the exit save writes
	// nothing, so run.rec is still the file that Save renamed into place.
	var saved os.FileInfo
	if err := RunDurable(loggedDB(3, &log), dir, func(d *Durable) error {
		d.Save()
		var err error
		saved, err = os.Stat(runFile(dir))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if now, err := os.Stat(runFile(dir)); err != nil || !os.SameFile(saved, now) {
		t.Errorf("the exit save rewrote an unchanged run record (stat: %v)", err)
	}
}

// TestDurableSavesOnError: a body that fails still gets its run record
// saved (frontier included), and RunDurable returns its error.
func TestDurableSavesOnError(t *testing.T) {
	var log logLines
	dir := storeDir(t)
	db := loggedDB(3, &log)
	boom := errors.New("boom")
	err := RunDurable(db, dir, func(d *Durable) error {
		if _, err := durableSearch(d, db); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("RunDurable = %v, want the body's error", err)
	}
	rec := readRunRecord(t, dir)
	points := 0
	for _, cfgs := range rec.Points {
		points += len(cfgs)
	}
	if len(rec.Frontier) != 1 || points != len(db.CandidateKeys()) {
		t.Errorf("run record holds %d searches and %d design points, want 1 and %d",
			len(rec.Frontier), points, len(db.CandidateKeys()))
	}
}
