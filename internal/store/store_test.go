package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"compisa/internal/fault"
)

func testPath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "points.log")
}

func mustOpen(t *testing.T, path string, opts Options) *Store {
	t.Helper()
	s, err := Open(path, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", path, err)
	}
	return s
}

func mustPut(t *testing.T, s *Store, key, val string) {
	t.Helper()
	if err := s.Put(key, []byte(val)); err != nil {
		t.Fatalf("Put(%s): %v", key, err)
	}
}

func wantGet(t *testing.T, s *Store, key, val string) {
	t.Helper()
	got, err := s.Get(key)
	if err != nil {
		t.Fatalf("Get(%s): %v", key, err)
	}
	if string(got) != val {
		t.Fatalf("Get(%s) = %q, want %q", key, got, val)
	}
}

func TestRoundtripAndReopen(t *testing.T) {
	path := testPath(t)
	s := mustOpen(t, path, Options{})
	for i := 0; i < 20; i++ {
		mustPut(t, s, fmt.Sprintf("key-%02d", i), fmt.Sprintf("value-%02d", i))
	}
	mustPut(t, s, "key-05", "overwritten") // last write wins
	wantGet(t, s, "key-05", "overwritten")
	if s.Len() != 20 {
		t.Fatalf("Len = %d, want 20", s.Len())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, path, Options{})
	defer s2.Close()
	if s2.Len() != 20 {
		t.Fatalf("reopened Len = %d, want 20", s2.Len())
	}
	wantGet(t, s2, "key-05", "overwritten")
	wantGet(t, s2, "key-19", "value-19")
	rec := s2.Recovery()
	if rec.Appends != 21 || rec.Quarantined != 0 || rec.TruncatedBytes != 0 {
		t.Fatalf("recovery = %+v, want 21 appends and nothing repaired", rec)
	}
	if g := s2.Garbage(); g <= 0 {
		t.Fatalf("Garbage = %g, want > 0 (one superseded record)", g)
	}
}

func TestGetMissingAndClosed(t *testing.T) {
	s := mustOpen(t, testPath(t), Options{})
	if _, err := s.Get("absent"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get(absent) = %v, want ErrNotFound", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("k", nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("Put after Close = %v, want ErrClosed", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("double Close = %v, want nil", err)
	}
}

// TestTornTailTruncated proves open discards garbage after the last valid
// record instead of failing.
func TestTornTailTruncated(t *testing.T) {
	path := testPath(t)
	s := mustOpen(t, path, Options{})
	mustPut(t, s, "a", "alpha")
	mustPut(t, s, "b", "beta")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// A crashed append leaves a torn record: a plausible header with a cut
	// payload. Simulate with raw garbage of varying shapes.
	for _, tail := range [][]byte{
		{0x07},                   // one stray byte
		{0x20, 0x00, 0x00, 0x00}, // half a header
		append(binary.LittleEndian.AppendUint32(nil, 40), 1, 2, 3, 4, 5, 6), // header claiming 40 bytes, 2 present
	} {
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		before, _ := os.Stat(path)
		if _, err := f.Write(tail); err != nil {
			t.Fatal(err)
		}
		f.Close()

		s2 := mustOpen(t, path, Options{})
		rec := s2.Recovery()
		if rec.TruncatedBytes != int64(len(tail)) {
			t.Fatalf("tail %v: TruncatedBytes = %d, want %d", tail, rec.TruncatedBytes, len(tail))
		}
		wantGet(t, s2, "a", "alpha")
		wantGet(t, s2, "b", "beta")
		if err := s2.Close(); err != nil {
			t.Fatal(err)
		}
		after, _ := os.Stat(path)
		if after.Size() != before.Size() {
			t.Fatalf("tail %v: size %d after reopen, want %d (tail removed)", tail, after.Size(), before.Size())
		}
	}
}

// TestMidLogCorruptionQuarantined proves a corrupt record with a valid
// successor is skipped and counted, never fatal, and never truncates the
// records after it.
func TestMidLogCorruptionQuarantined(t *testing.T) {
	path := testPath(t)
	s := mustOpen(t, path, Options{})
	mustPut(t, s, "a", "alpha")
	mustPut(t, s, "b", "beta")
	mustPut(t, s, "c", "gamma")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte of the middle record ("b"): its CRC fails but
	// "c" still parses, so recovery must skip, not truncate.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	i := bytes.Index(data, []byte("beta"))
	if i < 0 {
		t.Fatal("test setup: value not found in log")
	}
	data[i] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, path, Options{})
	defer s2.Close()
	rec := s2.Recovery()
	if rec.Quarantined != 1 {
		t.Fatalf("Quarantined = %d, want 1", rec.Quarantined)
	}
	if rec.TruncatedBytes != 0 {
		t.Fatalf("TruncatedBytes = %d, want 0 (mid-log corruption must not truncate)", rec.TruncatedBytes)
	}
	wantGet(t, s2, "a", "alpha")
	wantGet(t, s2, "c", "gamma")
	if _, err := s2.Get("b"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get(b) = %v, want ErrNotFound (record quarantined)", err)
	}
	// The store stays appendable after quarantine; the new record heals b.
	mustPut(t, s2, "b", "beta2")
	wantGet(t, s2, "b", "beta2")
}

// TestFutureRecordVersionSkipped proves forward compatibility: an intact
// record with an unknown version byte is skipped with a count.
func TestFutureRecordVersionSkipped(t *testing.T) {
	path := testPath(t)
	s := mustOpen(t, path, Options{})
	mustPut(t, s, "a", "alpha")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Craft a version-99 record with a correct checksum and append it.
	payload := append([]byte{99}, binary.LittleEndian.AppendUint32(nil, 1)...)
	payload = append(payload, 'z', 'f', 'u', 't', 'u', 'r', 'e')
	rec := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	rec = binary.LittleEndian.AppendUint32(rec, crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
	rec = append(rec, payload...)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(rec); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2 := mustOpen(t, path, Options{})
	defer s2.Close()
	if q := s2.Recovery().Quarantined; q != 1 {
		t.Fatalf("Quarantined = %d, want 1 (future-version record)", q)
	}
	wantGet(t, s2, "a", "alpha")
}

// TestTornHeader proves a file cut inside the 8-byte magic is reset, and a
// foreign file is refused rather than clobbered.
func TestTornHeader(t *testing.T) {
	path := testPath(t)
	if err := os.WriteFile(path, []byte(magic[:3]), 0o644); err != nil {
		t.Fatal(err)
	}
	s := mustOpen(t, path, Options{})
	if rec := s.Recovery(); rec.TruncatedBytes != 3 {
		t.Fatalf("TruncatedBytes = %d, want 3", rec.TruncatedBytes)
	}
	mustPut(t, s, "a", "alpha")
	s.Close()

	foreign := filepath.Join(t.TempDir(), "notes.txt")
	if err := os.WriteFile(foreign, []byte("not a store file"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(foreign, Options{}); err == nil {
		t.Fatal("Open(foreign file) succeeded, want bad-magic error")
	}
	got, err := os.ReadFile(foreign)
	if err != nil || string(got) != "not a store file" {
		t.Fatalf("foreign file altered: %q, %v", got, err)
	}
}

func TestCompact(t *testing.T) {
	path := testPath(t)
	s := mustOpen(t, path, Options{})
	for i := 0; i < 10; i++ {
		mustPut(t, s, "key", fmt.Sprintf("v%d", i)) // 9 superseded appends
		mustPut(t, s, fmt.Sprintf("live-%d", i), "x")
	}
	if g := s.Garbage(); g <= 0.3 {
		t.Fatalf("Garbage = %g, want > 0.3 before compaction", g)
	}
	before, _ := os.Stat(path)
	if err := s.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	after, _ := os.Stat(path)
	if after.Size() >= before.Size() {
		t.Fatalf("size %d after compaction, want < %d", after.Size(), before.Size())
	}
	if g := s.Garbage(); g != 0 {
		t.Fatalf("Garbage = %g after compaction, want 0", g)
	}
	wantGet(t, s, "key", "v9")
	// The compacted store keeps serving appends on the new handle.
	mustPut(t, s, "post", "compact")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := mustOpen(t, path, Options{})
	defer s2.Close()
	if s2.Len() != 12 {
		t.Fatalf("Len = %d after reopen, want 12", s2.Len())
	}
	wantGet(t, s2, "key", "v9")
	wantGet(t, s2, "post", "compact")
	// No temporaries left behind.
	stale, _ := filepath.Glob(filepath.Join(filepath.Dir(path), "*.compact-*"))
	if len(stale) != 0 {
		t.Fatalf("stale compaction temps left: %v", stale)
	}
}

// TestCompactDrop: keys named to Compact are left out of the new log, so
// neither the store nor a reopen serves them; a named key the store lacks
// changes nothing.
func TestCompactDrop(t *testing.T) {
	path := testPath(t)
	s := mustOpen(t, path, Options{})
	for _, k := range []string{"a", "b", "c"} {
		mustPut(t, s, k, "v-"+k)
	}
	if err := s.Compact("b", "absent"); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	check := func(s *Store) {
		t.Helper()
		if s.Len() != 2 {
			t.Fatalf("Len = %d, want 2", s.Len())
		}
		if _, err := s.Get("b"); !errors.Is(err, ErrNotFound) {
			t.Fatalf("Get(b) = %v, want ErrNotFound", err)
		}
		wantGet(t, s, "a", "v-a")
		wantGet(t, s, "c", "v-c")
	}
	check(s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := mustOpen(t, path, Options{})
	defer s2.Close()
	check(s2)
}

// TestGroupCommit proves every Put is its own commit: each pays one write
// and one fsync, and an idle Sync issues no fsync.
func TestGroupCommit(t *testing.T) {
	inj, err := fault.NewStoreInjector(fault.StoreConfig{})
	if err != nil {
		t.Fatal(err)
	}
	fs := NewFaultFS(nil, inj)
	s := mustOpen(t, testPath(t), Options{FS: fs})
	base := inj.Ops() // open wrote+synced the header
	for i := 0; i < 8; i++ {
		mustPut(t, s, fmt.Sprintf("k%d", i), "v")
	}
	if got := inj.Ops() - base; got != 16 {
		t.Fatalf("ops = %d, want 16 (8 writes + 8 syncs)", got)
	}
	if err := s.Sync(); err != nil { // nothing pending: no fsync issued
		t.Fatal(err)
	}
	if got := inj.Ops() - base; got != 16 {
		t.Fatalf("ops = %d, want 16 (idle Sync free)", got)
	}
	s.Close()
}

// TestInjectedFaults drives the store through rate-injected short writes,
// write errors, and fsync errors: every failure surfaces as a classified
// StageStore fault, the store keeps serving, and a clean reopen sees every
// acknowledged record.
func TestInjectedFaults(t *testing.T) {
	path := testPath(t)
	// Boot cleanly first (the header write is part of open); chaos starts
	// once the store is serving, like a disk going bad under load.
	mustOpen(t, path, Options{}).Close()
	inj, err := fault.NewStoreInjector(fault.StoreConfig{Seed: 42, Rate: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	s := mustOpen(t, path, Options{FS: NewFaultFS(nil, inj)})
	acked := map[string]string{}
	var failures int
	for i := 0; i < 200; i++ {
		key, val := fmt.Sprintf("key-%03d", i), fmt.Sprintf("val-%03d", i)
		err := s.Put(key, []byte(val))
		if err == nil {
			acked[key] = val
			continue
		}
		failures++
		if !errors.Is(err, fault.ErrInjected) {
			t.Fatalf("Put(%s): organic error %v under injection", key, err)
		}
		var fe *fault.Error
		if !errors.As(err, &fe) || fe.Stage != fault.StageStore {
			t.Fatalf("Put(%s): error %v not classified as StageStore", key, err)
		}
	}
	if failures == 0 {
		t.Fatal("no faults injected at rate 0.3 over 200 puts")
	}
	s.Close()

	// Reopen without injection: recovery is clean and every acked record
	// survives. (Sync-failed records may survive too — the invariant is
	// one-directional.)
	s2 := mustOpen(t, path, Options{})
	defer s2.Close()
	for key, val := range acked {
		got, err := s2.Get(key)
		if err != nil && !errors.Is(err, ErrNotFound) {
			t.Fatalf("Get(%s): %v", key, err)
		}
		// A Put whose own append succeeded but whose fsync failed was
		// still acked=false above, so everything in acked had err == nil
		// and must be present.
		if err != nil {
			t.Fatalf("acked record %s lost after reopen", key)
		}
		if string(got) != val {
			t.Fatalf("Get(%s) = %q, want %q", key, got, val)
		}
	}
}

func TestConcurrentPuts(t *testing.T) {
	s := mustOpen(t, testPath(t), Options{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				key := fmt.Sprintf("w%d-%03d", w, i)
				if err := s.Put(key, []byte(key)); err != nil {
					t.Errorf("Put(%s): %v", key, err)
				}
			}
		}(w)
	}
	wg.Wait()
	if s.Len() != 200 {
		t.Fatalf("Len = %d, want 200", s.Len())
	}
	var n int
	if err := s.Range(func(key string, val []byte) error {
		if key != string(val) {
			t.Fatalf("Range: %q -> %q", key, val)
		}
		n++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if n != 200 {
		t.Fatalf("Range visited %d, want 200", n)
	}
	s.Close()
}
