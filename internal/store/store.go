// Package store is a crash-safe, content-addressed persistent store: the
// durable profile tier under the evaluation pipeline's in-memory caches.
// Keys are ISA keys (a stable cross-host identity), values are opaque byte
// blobs (one completed profile set each, encoded by eval.DB).
//
// Format: one append-only log file. An 8-byte magic header is followed by
// length-prefixed records:
//
//	uint32le payloadLen | uint32le crc32c(payload) | payload
//	payload = version(1) | uint32le keyLen | key | value
//
// The last record for a key wins. An in-memory index (key → offset) is
// rebuilt by scanning the log on open; values stay on disk and are
// re-checksummed on every read.
//
// Crash safety is by construction and proven by the chaos suite
// (chaos_test.go):
//
//   - appends go to the tracked end offset, never O_APPEND, so a torn
//     append is overwritten by the next one and a crash leaves it as a
//     torn tail;
//   - open truncates a torn tail at the first bad checksum instead of
//     failing, and quarantines corrupt mid-log records (skip + count,
//     never crash) when a valid successor record proves the log continues;
//   - every Put fsyncs before it returns nil, so an acknowledged record is
//     durable; after a failed fsync the record is durable once a later Put
//     or Sync has returned nil;
//   - compaction writes a new log, fsyncs it, atomically renames it over
//     the old one, and fsyncs the directory — a crash at any point leaves
//     either the complete old log or the complete new one.
//
// Every byte flows through the FS seam, so internal/fault's StoreInjector
// can tear writes, fail fsyncs, and kill the process at any mutating
// operation (see FaultFS).
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"compisa/internal/fault"
)

// magic identifies a store log file; open refuses files that exist but
// carry other content (never clobber a foreign file).
const magic = "CPSTOR1\n"

// recordV1 is the current record payload version. Records with an unknown
// (future) version are skipped and counted, not an error: an old binary
// reopening a newer log serves what it understands.
const recordV1 = 1

// maxRecord bounds a single record's payload; a larger length field is
// treated as corruption.
const maxRecord = 64 << 20

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrClosed is returned by operations on a closed store.
var ErrClosed = errors.New("store: closed")

// ErrNotFound is returned by Get for an absent key.
var ErrNotFound = errors.New("store: key not found")

// Options configures Open. The zero value selects the documented defaults.
type Options struct {
	// FS is the filesystem seam (default OSFS{}).
	FS FS
	// Log, if set, receives recovery and compaction events.
	Log func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.FS == nil {
		o.FS = OSFS{}
	}
	return o
}

// Recovery reports what open found: how much of the log survived, and what
// had to be discarded or skipped to make it consistent.
type Recovery struct {
	// Records is the number of live keys indexed (last write per key wins).
	Records int
	// Appends is the number of valid records scanned, including
	// superseded ones (compaction garbage).
	Appends int
	// Quarantined is the number of corrupt mid-log records skipped.
	Quarantined int
	// TruncatedBytes is the size of the torn tail discarded.
	TruncatedBytes int64
}

func (r Recovery) String() string {
	return fmt.Sprintf("%d records (%d appends, %d quarantined, %d torn bytes)",
		r.Records, r.Appends, r.Quarantined, r.TruncatedBytes)
}

// recLoc locates one record's payload in the log.
type recLoc struct {
	off    int64 // payload offset (past the 8-byte record header)
	plen   int   // payload length
	keyLen int
}

// Store is the crash-safe record store. All methods are safe for
// concurrent use.
type Store struct {
	mu       sync.Mutex
	opts     Options
	fs       FS
	path     string
	f        File
	size     int64 // append offset (end of last valid record)
	pending  int   // appends since the last successful fsync
	index    map[string]recLoc
	appends  int // valid records scanned or written this lineage
	recovery Recovery
	closed   bool
}

// storeErr wraps an I/O failure into the fault taxonomy: StageStore,
// transient (the device may recover; the serving layer degrades to
// memory-only rather than failing evaluations).
func storeErr(op string, err error) error {
	return &fault.Error{Stage: fault.StageStore, Transient: true,
		Err: fmt.Errorf("store: %s: %w", op, err)}
}

// corruptErr wraps a data-integrity failure: StageStore but not transient
// (rereading corrupt bytes will not help).
func corruptErr(op string, err error) error {
	return &fault.Error{Stage: fault.StageStore,
		Err: fmt.Errorf("store: %s: %w", op, err)}
}

// Open opens (creating if absent) the log at path and rebuilds the index.
// Open never fails on a torn or partially corrupt log: the torn tail is
// truncated, corrupt mid-log records are quarantined, and the recovery
// report says what happened. It does fail on foreign file content, or when
// the file cannot be opened at all.
func Open(path string, opts Options) (*Store, error) {
	opts = opts.withDefaults()
	s := &Store{
		opts:  opts,
		fs:    opts.FS,
		path:  path,
		index: map[string]recLoc{},
	}
	s.removeStaleTemps()
	f, err := s.fs.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, storeErr("open "+path, err)
	}
	s.f = f
	if err := s.recover(); err != nil {
		f.Close()
		return nil, err
	}
	s.recovery.Records = len(s.index)
	s.recovery.Appends = s.appends
	if s.recovery.Quarantined > 0 || s.recovery.TruncatedBytes > 0 {
		s.logf("store: recovered %s: %s", path, s.recovery)
	}
	return s, nil
}

func (s *Store) logf(format string, args ...any) {
	if s.opts.Log != nil {
		s.opts.Log(format, args...)
	}
}

// removeStaleTemps deletes compaction temporaries a crash left behind.
func (s *Store) removeStaleTemps() {
	pattern := filepath.Join(filepath.Dir(s.path), filepath.Base(s.path)+".compact-*")
	stale, err := filepath.Glob(pattern)
	if err != nil {
		return
	}
	for _, t := range stale {
		if err := s.fs.Remove(t); err == nil {
			s.logf("store: removed stale compaction temp %s", t)
		}
	}
}

// recover scans the log, building the index and repairing the tail.
func (s *Store) recover() error {
	var hdr [8]byte
	n, err := s.f.ReadAt(hdr[:], 0)
	if err != nil && err != io.EOF {
		return storeErr("read header", err)
	}
	switch {
	case n == 0:
		// Fresh (or fully torn-away) file: write the header.
		return s.writeHeader()
	case n < len(hdr):
		// A crash tore the header write itself; no record can follow a
		// partial header, so reset the file.
		s.recovery.TruncatedBytes = int64(n)
		if err := s.f.Truncate(0); err != nil {
			return storeErr("truncate torn header", err)
		}
		return s.writeHeader()
	}
	if string(hdr[:]) != magic {
		return corruptErr("open", fmt.Errorf("%s is not a design-point store (bad magic)", s.path))
	}
	off := int64(len(magic))
	for {
		loc, next, ok := s.readRecordAt(off)
		if !ok {
			// Torn or unrecoverable tail: cut the log at the last good
			// record. Everything before off stays intact.
			end, tornErr := s.tailSize(off)
			if tornErr != nil {
				return tornErr
			}
			if end > off {
				s.recovery.TruncatedBytes = end - off
				if err := s.f.Truncate(off); err != nil {
					return storeErr("truncate torn tail", err)
				}
			}
			break
		}
		if loc.plen < 0 {
			// Quarantined record (corrupt payload or future version with a
			// valid successor): skip it, keep scanning.
			s.recovery.Quarantined++
			off = next
			continue
		}
		key, kerr := s.readKey(loc)
		if kerr != nil {
			return kerr
		}
		s.index[key] = loc
		s.appends++
		off = next
	}
	s.size = off
	return nil
}

// writeHeader initializes an empty log, fsynced at once: the header must be
// durable before any record.
func (s *Store) writeHeader() error {
	if _, err := s.f.WriteAt([]byte(magic), 0); err != nil {
		return storeErr("write header", err)
	}
	if err := s.f.Sync(); err != nil {
		return storeErr("sync header", err)
	}
	s.size = int64(len(magic))
	return nil
}

// readRecordAt parses the record at off. Returns (loc, nextOff, true) for
// a usable record; (loc with plen == -1, nextOff, true) for a record to
// quarantine-skip; ok == false when the bytes at off cannot be a record
// whose log continues — the torn-tail case.
func (s *Store) readRecordAt(off int64) (recLoc, int64, bool) {
	plen, crc, ok := s.readRecordHeader(off)
	if !ok {
		return recLoc{}, 0, false
	}
	payload := make([]byte, plen)
	if n, err := s.f.ReadAt(payload, off+8); n < plen || (err != nil && err != io.EOF) {
		return recLoc{}, 0, false // payload cut short: torn tail
	}
	next := off + 8 + int64(plen)
	if crc32.Checksum(payload, castagnoli) != crc {
		// Corrupt payload. Mid-log (a valid record follows): quarantine.
		// Otherwise it is the torn tail.
		if s.validRecordAt(next) {
			return recLoc{plen: -1}, next, true
		}
		return recLoc{}, 0, false
	}
	ver := payload[0]
	if ver != recordV1 {
		// Future format version: skip it (forward compatibility), whether
		// or not anything follows — its checksum proves it is intact.
		return recLoc{plen: -1}, next, true
	}
	keyLen := int(binary.LittleEndian.Uint32(payload[1:5]))
	if keyLen < 0 || 5+keyLen > plen {
		// Checksummed but self-inconsistent: quarantine, never crash.
		return recLoc{plen: -1}, next, true
	}
	return recLoc{off: off + 8, plen: plen, keyLen: keyLen}, next, true
}

// readRecordHeader reads and sanity-checks the 8-byte record header.
func (s *Store) readRecordHeader(off int64) (plen int, crc uint32, ok bool) {
	var hdr [8]byte
	if n, err := s.f.ReadAt(hdr[:], off); n < len(hdr) || (err != nil && err != io.EOF) {
		return 0, 0, false
	}
	plen = int(binary.LittleEndian.Uint32(hdr[0:4]))
	if plen <= 0 || plen > maxRecord {
		// An implausible length field means the header itself is damaged;
		// record boundaries past it are unknowable, so the scan treats it
		// as the torn tail.
		return 0, 0, false
	}
	return plen, binary.LittleEndian.Uint32(hdr[4:8]), true
}

// validRecordAt reports whether a complete, checksum-valid record starts
// at off (the one-record lookahead distinguishing mid-log corruption from
// the torn tail).
func (s *Store) validRecordAt(off int64) bool {
	plen, crc, ok := s.readRecordHeader(off)
	if !ok {
		return false
	}
	payload := make([]byte, plen)
	if n, err := s.f.ReadAt(payload, off+8); n < plen || (err != nil && err != io.EOF) {
		return false
	}
	return crc32.Checksum(payload, castagnoli) == crc
}

// tailSize measures how many bytes exist at and after off (the torn tail
// about to be discarded), by probing reads; the File seam has no Stat.
func (s *Store) tailSize(off int64) (int64, error) {
	end := off
	buf := make([]byte, 32*1024)
	for {
		n, err := s.f.ReadAt(buf, end)
		end += int64(n)
		if err == io.EOF {
			return end, nil
		}
		if err != nil {
			return 0, storeErr("measure torn tail", err)
		}
		if n == 0 {
			return end, nil
		}
	}
}

// readKey extracts the key of an indexed record.
func (s *Store) readKey(loc recLoc) (string, error) {
	key := make([]byte, loc.keyLen)
	if _, err := s.f.ReadAt(key, loc.off+5); err != nil && err != io.EOF {
		return "", storeErr("read key", err)
	}
	return string(key), nil
}

// encodeRecord renders one record (header + payload).
func encodeRecord(key string, val []byte) []byte {
	plen := 1 + 4 + len(key) + len(val)
	rec := make([]byte, 8+plen)
	payload := rec[8:]
	payload[0] = recordV1
	binary.LittleEndian.PutUint32(payload[1:5], uint32(len(key)))
	copy(payload[5:], key)
	copy(payload[5+len(key):], val)
	binary.LittleEndian.PutUint32(rec[0:4], uint32(plen))
	binary.LittleEndian.PutUint32(rec[4:8], crc32.Checksum(payload, castagnoli))
	return rec
}

// Put appends one record and fsyncs it: when Put returns nil the record is
// durable. A failed append does not advance the log: the next Put
// overwrites the torn bytes, and a reopen truncates them.
func (s *Store) Put(key string, val []byte) error {
	if len(key) == 0 {
		return corruptErr("put", errors.New("empty key"))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	rec := encodeRecord(key, val)
	if int64(len(rec)-8) > maxRecord {
		return corruptErr("put", fmt.Errorf("record of %d bytes exceeds limit %d", len(rec)-8, maxRecord))
	}
	if _, err := s.f.WriteAt(rec, s.size); err != nil {
		return storeErr("append", err)
	}
	loc := recLoc{off: s.size + 8, plen: len(rec) - 8, keyLen: len(key)}
	s.size += int64(len(rec))
	s.appends++
	s.pending++
	// The record is visible (indexed) even if the fsync below fails: this
	// process can read it back, it is just not durable yet — the next
	// successful sync covers it.
	s.index[key] = loc
	return s.syncLocked()
}

// Sync retries the fsync of records whose Put failed to sync: every
// appended record is durable once Sync returns nil.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	return s.syncLocked()
}

func (s *Store) syncLocked() error {
	if s.pending == 0 {
		return nil
	}
	if err := s.f.Sync(); err != nil {
		// Keep pending non-zero: the next Put or Sync retries the fsync, and
		// callers know these records are not yet durable.
		return storeErr("sync", err)
	}
	s.pending = 0
	return nil
}

// Get returns the value for key. The payload is re-checksummed on read, so
// bit rot since open surfaces as a corruption error, never as bad data.
func (s *Store) Get(key string) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	loc, ok := s.index[key]
	if !ok {
		return nil, ErrNotFound
	}
	return s.readValueLocked(key, loc)
}

func (s *Store) readValueLocked(key string, loc recLoc) ([]byte, error) {
	payload := make([]byte, loc.plen)
	if _, err := s.f.ReadAt(payload, loc.off); err != nil && err != io.EOF {
		return nil, storeErr("read "+key, err)
	}
	var hdr [8]byte
	if _, err := s.f.ReadAt(hdr[:], loc.off-8); err != nil && err != io.EOF {
		return nil, storeErr("read "+key, err)
	}
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(hdr[4:8]) {
		return nil, corruptErr("read "+key, errors.New("checksum mismatch"))
	}
	return payload[5+loc.keyLen:], nil
}

// Len reports the number of live keys.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// Keys returns the live keys, sorted.
func (s *Store) Keys() []string {
	s.mu.Lock()
	keys := make([]string, 0, len(s.index))
	for k := range s.index {
		keys = append(keys, k)
	}
	s.mu.Unlock()
	sort.Strings(keys)
	return keys
}

// Range calls fn for every live (key, value) pair in sorted key order,
// stopping at the first error. Corrupt values are reported to fn's error
// path via the returned error.
func (s *Store) Range(fn func(key string, val []byte) error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	keys := make([]string, 0, len(s.index))
	for k := range s.index {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		val, err := s.readValueLocked(k, s.index[k])
		if err != nil {
			return err
		}
		if err := fn(k, val); err != nil {
			return err
		}
	}
	return nil
}

// Garbage reports the fraction of scanned appends that are superseded
// (compaction candidates): 0 when every append is live.
func (s *Store) Garbage() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.appends == 0 {
		return 0
	}
	return float64(s.appends-len(s.index)) / float64(s.appends)
}

// Recovery returns what open found (see Recovery).
func (s *Store) Recovery() Recovery {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recovery
}

// Compact rewrites the log with only live records, leaving out the keys in
// drop: write-new + fsync + atomic rename + directory fsync. A crash at any
// point leaves either the complete old log or the complete new one; a
// failed compaction leaves the old log serving and removes its temporary.
func (s *Store) Compact(drop ...string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	// Flush the old log first so the records being carried over are the
	// durable truth (and a crash mid-compaction loses nothing).
	if err := s.syncLocked(); err != nil {
		return err
	}
	dir := filepath.Dir(s.path)
	tmp, tmpName, err := s.fs.CreateTemp(dir, filepath.Base(s.path)+".compact-*")
	if err != nil {
		return storeErr("compact: create temp", err)
	}
	abort := func(stage string, err error) error {
		tmp.Close()
		s.fs.Remove(tmpName)
		return storeErr("compact: "+stage, err)
	}
	dropped := make(map[string]bool, len(drop))
	for _, k := range drop {
		dropped[k] = true
	}
	keys := make([]string, 0, len(s.index))
	for k := range s.index {
		if !dropped[k] {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	if _, err := tmp.WriteAt([]byte(magic), 0); err != nil {
		return abort("write header", err)
	}
	off := int64(len(magic))
	newIndex := make(map[string]recLoc, len(keys))
	for _, k := range keys {
		val, err := s.readValueLocked(k, s.index[k])
		if err != nil {
			return abort("carry "+k, err)
		}
		rec := encodeRecord(k, val)
		if _, err := tmp.WriteAt(rec, off); err != nil {
			return abort("write "+k, err)
		}
		newIndex[k] = recLoc{off: off + 8, plen: len(rec) - 8, keyLen: len(k)}
		off += int64(len(rec))
	}
	if err := tmp.Sync(); err != nil {
		return abort("sync", err)
	}
	if err := tmp.Close(); err != nil {
		return abort("close", err)
	}
	if err := s.fs.Rename(tmpName, s.path); err != nil {
		s.fs.Remove(tmpName)
		return storeErr("compact: rename", err)
	}
	if err := s.fs.SyncDir(dir); err != nil {
		// The rename happened; only its durability is in question. Keep
		// serving the new log and surface the error.
		s.logf("store: compact: dir sync: %v", err)
	}
	f, err := s.fs.OpenFile(s.path, os.O_RDWR, 0o644)
	if err != nil {
		// The new log is installed but we lost our handle; the store can
		// no longer append. Surface a hard error.
		return storeErr("compact: reopen", err)
	}
	s.f.Close()
	s.f = f
	s.index = newIndex
	s.size = off
	s.appends = len(newIndex)
	s.pending = 0
	s.logf("store: compacted %s: %d records, %d bytes", s.path, len(newIndex), off)
	return nil
}

// Close syncs pending appends and releases the file.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	serr := s.syncLocked()
	cerr := s.f.Close()
	s.closed = true
	if serr != nil {
		return serr
	}
	if cerr != nil {
		return storeErr("close", cerr)
	}
	return nil
}

// Path returns the log file path.
func (s *Store) Path() string { return s.path }
