package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"compisa/internal/fault"
)

func testDir(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "profiles")
}

func mustOpen(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return s
}

func mustPut(t *testing.T, s *Store, key, val string) {
	t.Helper()
	if err := s.Put(key, []byte(val)); err != nil {
		t.Fatalf("Put(%s): %v", key, err)
	}
}

// readAll collects every record Range yields, and how many it skipped.
func readAll(t *testing.T, s *Store) (map[string]string, int) {
	t.Helper()
	got := map[string]string{}
	skipped, err := s.Range(func(key string, val []byte) error {
		if _, dup := got[key]; dup {
			t.Errorf("Range yielded %s twice", key)
		}
		got[key] = string(val)
		return nil
	})
	if err != nil {
		t.Fatalf("Range: %v", err)
	}
	return got, skipped
}

// debris lists the directory entries that are not record files.
func debris(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range ents {
		if !strings.HasSuffix(e.Name(), ext) {
			out = append(out, e.Name())
		}
	}
	return out
}

func TestRoundtripAndReopen(t *testing.T) {
	dir := testDir(t)
	s := mustOpen(t, dir, Options{})
	for i := 0; i < 20; i++ {
		mustPut(t, s, fmt.Sprintf("key-%02d", i), fmt.Sprintf("value-%02d", i))
	}
	mustPut(t, s, "key-05", "overwritten") // last write wins
	mustPut(t, s, "vendor:Alpha", "escaped name")

	got, skipped := readAll(t, mustOpen(t, dir, Options{}))
	if len(got) != 21 || skipped != 0 {
		t.Fatalf("reopened: %d records, %d skipped; want 21 and 0", len(got), skipped)
	}
	for key, want := range map[string]string{"key-05": "overwritten", "key-19": "value-19", "vendor:Alpha": "escaped name"} {
		if got[key] != want {
			t.Fatalf("%s = %q, want %q", key, got[key], want)
		}
	}
	if d := debris(t, dir); len(d) != 0 {
		t.Fatalf("store directory holds %v besides its records", d)
	}
}

// TestCorruptRecordFileSkipped proves a record file with a flipped byte is
// skipped and counted, never fatal, and leaves every other record loading;
// the key's next Put heals it.
func TestCorruptRecordFileSkipped(t *testing.T) {
	dir := testDir(t)
	s := mustOpen(t, dir, Options{})
	mustPut(t, s, "a", "alpha")
	mustPut(t, s, "b", "beta")
	mustPut(t, s, "c", "gamma")
	path := filepath.Join(dir, fileName("b"))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	var logged []string
	s2 := mustOpen(t, dir, Options{Log: func(f string, a ...any) { logged = append(logged, fmt.Sprintf(f, a...)) }})
	got, skipped := readAll(t, s2)
	if skipped != 1 || len(got) != 2 || got["a"] != "alpha" || got["c"] != "gamma" {
		t.Fatalf("got %v with %d skipped, want a and c with 1 skipped", got, skipped)
	}
	if len(logged) != 1 || !strings.Contains(logged[0], "checksum mismatch") {
		t.Fatalf("log = %q, want one checksum-mismatch line", logged)
	}
	mustPut(t, s2, "b", "beta2")
	got, skipped = readAll(t, s2)
	if skipped != 0 || got["b"] != "beta2" {
		t.Fatalf("after the healing Put: b = %q, %d skipped", got["b"], skipped)
	}
}

// TestFutureRecordVersionSkipped proves forward compatibility: an intact
// record with an unknown version byte is skipped with a count.
func TestFutureRecordVersionSkipped(t *testing.T) {
	dir := testDir(t)
	s := mustOpen(t, dir, Options{})
	mustPut(t, s, "a", "alpha")
	// Craft a version-99 record with a correct checksum.
	payload := append([]byte{99}, binary.LittleEndian.AppendUint32(nil, 1)...)
	payload = append(payload, 'z', 'f', 'u', 't', 'u', 'r', 'e')
	rec := binary.LittleEndian.AppendUint32([]byte(magic), uint32(len(payload)))
	rec = binary.LittleEndian.AppendUint32(rec, crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
	rec = append(rec, payload...)
	if err := os.WriteFile(filepath.Join(dir, fileName("z")), rec, 0o644); err != nil {
		t.Fatal(err)
	}
	got, skipped := readAll(t, mustOpen(t, dir, Options{}))
	if skipped != 1 || len(got) != 1 || got["a"] != "alpha" {
		t.Fatalf("got %v with %d skipped, want a alone with 1 skipped (future-version record)", got, skipped)
	}
}

// TestForeignContentUntouched proves a path that is a file, not a store
// directory, is refused rather than clobbered, and that files in the store
// directory which are not records are neither read nor removed.
func TestForeignContentUntouched(t *testing.T) {
	foreign := filepath.Join(t.TempDir(), "notes.txt")
	if err := os.WriteFile(foreign, []byte("not a store"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(foreign, Options{}); err == nil {
		t.Fatal("Open(foreign file) succeeded, want an error")
	}
	if got, err := os.ReadFile(foreign); err != nil || string(got) != "not a store" {
		t.Fatalf("foreign file altered: %q, %v", got, err)
	}

	dir := testDir(t)
	s := mustOpen(t, dir, Options{})
	mustPut(t, s, "a", "alpha")
	notes := filepath.Join(dir, "README")
	if err := os.WriteFile(notes, []byte("hands off"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, skipped := readAll(t, mustOpen(t, dir, Options{}))
	if skipped != 0 || len(got) != 1 {
		t.Fatalf("got %v with %d skipped, want a alone", got, skipped)
	}
	if data, err := os.ReadFile(notes); err != nil || string(data) != "hands off" {
		t.Fatalf("foreign file in the store altered: %q, %v", data, err)
	}
}

// TestInjectedFaults drives Put through rate-injected short writes, write
// errors and fsync errors: every failure surfaces as a classified
// StageStore fault, a failed Put leaves no temp behind, and a clean reopen
// sees every acknowledged record.
func TestInjectedFaults(t *testing.T) {
	dir := testDir(t)
	// Create the directory cleanly first; chaos starts once the store is
	// serving, like a disk going bad under load.
	mustOpen(t, dir, Options{})
	inj, err := fault.NewStoreInjector(fault.StoreConfig{Seed: 42, Rate: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	s := mustOpen(t, dir, Options{FS: NewFaultFS(inj)})
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
	if d := debris(t, dir); len(d) != 0 {
		t.Fatalf("failed Puts left %v behind", d)
	}

	// A Put that failed only its directory fsync did rename its file, so
	// more than the acked records may load; every acked one must.
	got, skipped := readAll(t, mustOpen(t, dir, Options{}))
	if skipped != 0 {
		t.Fatalf("%d records skipped after injected faults", skipped)
	}
	for key, val := range acked {
		if got[key] != val {
			t.Fatalf("acked record %s = %q after reopen, want %q", key, got[key], val)
		}
	}
}

func TestConcurrentPuts(t *testing.T) {
	s := mustOpen(t, testDir(t), Options{})
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
				if err := s.Put("shared", []byte(key)); err != nil {
					t.Errorf("Put(shared): %v", err)
				}
			}
		}(w)
	}
	wg.Wait()
	got, skipped := readAll(t, s)
	if len(got) != 201 || skipped != 0 {
		t.Fatalf("Range visited %d records with %d skipped, want 201 and 0", len(got), skipped)
	}
	for key, val := range got {
		if key != "shared" && key != val {
			t.Fatalf("Range: %q -> %q", key, val)
		}
	}
}
