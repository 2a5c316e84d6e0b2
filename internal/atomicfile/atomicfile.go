// Package atomicfile writes files atomically and durably: readers observe
// either the previous contents or the new contents, never a torn mix, and
// once WriteFile returns the new contents survive power loss.
//
// The sequence is the standard crash-safe construction:
//
//  1. create a uniquely named temp file in the target's directory (same
//     filesystem, so the rename is atomic; unique name, so concurrent
//     writers never clobber each other's temp),
//  2. write the payload and fsync the temp (contents durable under the
//     temp name before the swap),
//  3. rename over the target (atomic on POSIX),
//  4. fsync the parent directory (the rename itself durable).
//
// Skipping step 2 is the classic bug: rename-without-fsync can commit the
// name before the data, leaving a zero-length or partial target after a
// crash. Skipping step 4 can lose the rename itself, resurrecting the old
// file — acceptable for caches, surprising for a saved run.
//
// Every mutating step goes through the FS seam, so a fault-injecting FS can
// tear the write, fail an fsync or kill the process at any step while the
// sequence itself stays untouched. A kill leaves at most a temp named
// <target>.tmp-*; TempPattern matches it for cleanup.
package atomicfile

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// FS is the filesystem seam under WriteFileFS: the mutating operations of
// the write sequence.
type FS interface {
	// CreateTemp creates a uniquely named temporary file in dir.
	CreateTemp(dir, pattern string) (File, error)
	// Rename atomically replaces newpath with oldpath.
	Rename(oldpath, newpath string) error
	// Remove deletes a file (an aborted write's temp).
	Remove(name string) error
	// SyncDir fsyncs a directory, making a completed rename durable.
	SyncDir(dir string) error
}

// File is the slice of *os.File the write sequence uses.
type File interface {
	io.Writer
	Name() string
	Chmod(mode os.FileMode) error
	Sync() error
	Close() error
}

// OSFS is the production FS backed by package os.
type OSFS struct{}

func (OSFS) CreateTemp(dir, pattern string) (File, error) {
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (OSFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (OSFS) Remove(name string) error { return os.Remove(name) }

func (OSFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// TempPattern is the glob of the temps a write of path creates, for
// removing the ones a killed process left behind.
func TempPattern(path string) string { return path + ".tmp-*" }

// WriteFile atomically and durably replaces path with data through OSFS.
func WriteFile(path string, data []byte, perm os.FileMode) error {
	return WriteFileFS(OSFS{}, path, data, perm)
}

// WriteFileFS atomically and durably replaces path with data through fsys.
// The temp file is created in path's directory and removed on any failure,
// so aborted writes leave no debris behind the target name.
func WriteFileFS(fsys FS, path string, data []byte, perm os.FileMode) (err error) {
	dir := filepath.Dir(path)
	f, err := fsys.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("atomicfile: %w", err)
	}
	tmp := f.Name()
	defer func() {
		if err != nil {
			f.Close()
			fsys.Remove(tmp)
		}
	}()
	if _, err = f.Write(data); err != nil {
		return fmt.Errorf("atomicfile: write %s: %w", tmp, err)
	}
	// CreateTemp uses 0600; widen to the caller's mode before publishing.
	if err = f.Chmod(perm); err != nil {
		return fmt.Errorf("atomicfile: chmod %s: %w", tmp, err)
	}
	if err = f.Sync(); err != nil {
		return fmt.Errorf("atomicfile: fsync %s: %w", tmp, err)
	}
	if err = f.Close(); err != nil {
		return fmt.Errorf("atomicfile: close %s: %w", tmp, err)
	}
	if err = fsys.Rename(tmp, path); err != nil {
		return fmt.Errorf("atomicfile: rename %s: %w", tmp, err)
	}
	if err = fsys.SyncDir(dir); err != nil {
		return fmt.Errorf("atomicfile: sync dir %s: %w", dir, err)
	}
	return nil
}
