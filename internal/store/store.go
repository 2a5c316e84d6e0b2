// Package store is the durable profile tier under the evaluation pipeline's
// in-memory caches: a directory holding one record file per key. Keys are
// ISA keys (a stable cross-host identity), values are opaque byte blobs
// (one completed profile set each, encoded by eval.DB).
//
// The record of key k lives in <dir>/<url.QueryEscape(k)>.rec:
//
//	magic(8) | uint32le payloadLen | uint32le crc32c(payload) | payload
//	payload = version(1) | uint32le keyLen | key | value
//
// Crash safety is by construction and proven by the chaos suite
// (chaos_test.go):
//
//   - Put writes the whole file through atomicfile (temp, fsync, rename,
//     directory fsync): when Put returns nil the record is durable, and a
//     crash at any point leaves the key's previous file (or none) whole,
//     plus at most a temp that the next Open removes;
//   - every key has its own file, so neither a crash nor a corrupt file
//     touches another record;
//   - Range checks every file's checksum and skips, counts and logs a
//     corrupt or unknown-version record; the key's next Put replaces the
//     file, which heals it;
//   - Open refuses a path that exists but is not a directory (a foreign
//     file, or a log the earlier single-file store wrote), and the store
//     reads and replaces only *.rec files, so foreign content is never
//     clobbered.
//
// Every mutating operation goes through the atomicfile.FS seam, so FaultFS
// can tear writes, fail fsyncs and kill the process at any of them.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"net/url"
	"os"
	"path/filepath"
	"strings"

	"compisa/internal/atomicfile"
	"compisa/internal/fault"
)

// magic opens every record file.
const magic = "CPSTOR1\n"

// recordV1 is the current record payload version. A record with an unknown
// (future) version is skipped and counted, not an error: an old binary
// reading a newer store serves what it understands.
const recordV1 = 1

// ext names record files; the store reads and replaces no other file.
const ext = ".rec"

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Options configures Open. The zero value selects the documented defaults.
type Options struct {
	// FS is the filesystem seam for every mutating operation (default
	// atomicfile.OSFS{}).
	FS atomicfile.FS
	// Log, if set, receives cleanup and skipped-record events.
	Log func(format string, args ...any)
}

// Store is the per-key record directory. All methods are safe for
// concurrent use: concurrent Puts of one key each install a whole file,
// and the last rename wins.
type Store struct {
	dir string
	fs  atomicfile.FS
	log func(format string, args ...any)
}

// storeErr wraps an I/O failure into the fault taxonomy: StageStore,
// transient (the device may recover; the DB degrades to memory-only rather
// than failing evaluations).
func storeErr(op string, err error) error {
	return &fault.Error{Stage: fault.StageStore, Transient: true,
		Err: fmt.Errorf("%s: %w", op, err)}
}

// corruptErr wraps a data-integrity failure: StageStore but not transient
// (rereading the same bytes will not help).
func corruptErr(op string, err error) error {
	return &fault.Error{Stage: fault.StageStore,
		Err: fmt.Errorf("%s: %w", op, err)}
}

// Open opens the store directory at dir, creating it (and making its entry
// durable) when absent, and removes the temps a killed Put left behind. It
// fails when dir exists but is not a directory, or cannot be created.
func Open(dir string, opts Options) (*Store, error) {
	s := &Store{dir: dir, fs: opts.FS, log: opts.Log}
	if s.fs == nil {
		s.fs = atomicfile.OSFS{}
	}
	if s.log == nil {
		s.log = func(string, ...any) {}
	}
	switch fi, err := os.Stat(dir); {
	case errors.Is(err, fs.ErrNotExist):
		if err := os.Mkdir(dir, 0o755); err != nil {
			return nil, storeErr("create "+dir, err)
		}
		if err := s.fs.SyncDir(filepath.Dir(dir)); err != nil {
			os.Remove(dir) // so the next Open creates it, and syncs, again
			return nil, storeErr("create "+dir, err)
		}
	case err != nil:
		return nil, storeErr("open "+dir, err)
	case !fi.IsDir():
		return nil, corruptErr("open", fmt.Errorf("%s is not a profile-store directory", dir))
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, storeErr("open "+dir, err)
	}
	for _, e := range ents {
		if ok, _ := filepath.Match(atomicfile.TempPattern("*"+ext), e.Name()); ok {
			if err := s.fs.Remove(filepath.Join(dir, e.Name())); err == nil {
				s.log("store: removed stale temp %s", filepath.Join(dir, e.Name()))
			}
		}
	}
	return s, nil
}

// fileName is the record file name of key.
func fileName(key string) string { return url.QueryEscape(key) + ext }

// Put durably replaces key's record: when Put returns nil the record
// survives a crash. A failed Put leaves the previous record whole.
func (s *Store) Put(key string, val []byte) error {
	plen := 1 + 4 + len(key) + len(val)
	rec := make([]byte, len(magic)+8+plen)
	copy(rec, magic)
	payload := rec[len(magic)+8:]
	payload[0] = recordV1
	binary.LittleEndian.PutUint32(payload[1:5], uint32(len(key)))
	copy(payload[5:], key)
	copy(payload[5+len(key):], val)
	binary.LittleEndian.PutUint32(rec[len(magic):], uint32(plen))
	binary.LittleEndian.PutUint32(rec[len(magic)+4:], crc32.Checksum(payload, castagnoli))
	if err := atomicfile.WriteFileFS(s.fs, filepath.Join(s.dir, fileName(key)), rec, 0o644); err != nil {
		return storeErr("put "+key, err)
	}
	return nil
}

// decode checks one record file's framing and checksum and splits it.
func decode(data []byte) (key string, val []byte, err error) {
	if len(data) < len(magic)+8+5 || string(data[:len(magic)]) != magic {
		return "", nil, errors.New("not a record (bad magic or truncated)")
	}
	hdr, payload := data[len(magic):len(magic)+8], data[len(magic)+8:]
	if int64(binary.LittleEndian.Uint32(hdr[0:4])) != int64(len(payload)) {
		return "", nil, errors.New("length mismatch")
	}
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(hdr[4:8]) {
		return "", nil, errors.New("checksum mismatch")
	}
	if payload[0] != recordV1 {
		return "", nil, fmt.Errorf("unknown record version %d", payload[0])
	}
	keyLen := int64(binary.LittleEndian.Uint32(payload[1:5]))
	if keyLen > int64(len(payload)-5) {
		return "", nil, errors.New("key overruns the record")
	}
	return string(payload[5 : 5+keyLen]), payload[5+keyLen:], nil
}

// Range calls fn for every intact record in file-name order, stopping at
// fn's first error. A record file that cannot be read or fails its checks
// is skipped, logged and counted in skipped; the other records still load.
func (s *Store) Range(fn func(key string, val []byte) error) (skipped int, err error) {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return 0, storeErr("read "+s.dir, err)
	}
	for _, e := range ents {
		if !e.Type().IsRegular() || !strings.HasSuffix(e.Name(), ext) {
			continue
		}
		path := filepath.Join(s.dir, e.Name())
		data, err := os.ReadFile(path)
		var key string
		var val []byte
		if err == nil {
			key, val, err = decode(data)
		}
		if err != nil {
			skipped++
			s.log("store: skipped %s: %v", path, err)
			continue
		}
		if err := fn(key, val); err != nil {
			return skipped, err
		}
	}
	return skipped, nil
}
