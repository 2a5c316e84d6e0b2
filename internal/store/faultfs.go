package store

import (
	"fmt"

	"compisa/internal/atomicfile"
	"compisa/internal/fault"
)

// FaultFS wraps an atomicfile.FS and consults a fault.StoreInjector on every
// mutating operation of a Put: the temp write, its fsync, the rename and
// the directory fsync. It simulates
//
//   - short writes: only a prefix of the buffer reaches the temp, and the
//     operation reports an error;
//   - write errors: nothing reaches the temp;
//   - fsync errors: the sync reports failure (bytes may or may not be
//     durable — the store must treat them as not);
//   - crashes: the process exits mid-operation, after persisting a torn
//     prefix for writes, driving the subprocess chaos harness.
//
// Removes pass through untouched: cleanup must always be able to run.
type FaultFS struct {
	atomicfile.FS
	Inject *fault.StoreInjector
}

// NewFaultFS wraps atomicfile.OSFS with injection.
func NewFaultFS(inj *fault.StoreInjector) *FaultFS {
	return &FaultFS{FS: atomicfile.OSFS{}, Inject: inj}
}

func (f *FaultFS) CreateTemp(dir, pattern string) (atomicfile.File, error) {
	file, err := f.FS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &faultFile{File: file, inj: f.Inject}, nil
}

func (f *FaultFS) Rename(oldpath, newpath string) error {
	if f.Inject.Decide(fault.OpRename).Kind == fault.KindCrash {
		// Killed before the swap: the old record file must still be whole.
		f.Inject.Crash()
	}
	return f.FS.Rename(oldpath, newpath)
}

func (f *FaultFS) SyncDir(dir string) error {
	switch d := f.Inject.Decide(fault.OpSyncDir); d.Kind {
	case fault.KindCrash:
		// Killed after the rename but before the directory fsync.
		f.Inject.Crash()
	case fault.KindSyncErr:
		return fmt.Errorf("%w: %s dir sync", fault.ErrInjected, d.Kind)
	}
	return f.FS.SyncDir(dir)
}

// faultFile intercepts the mutating File operations.
type faultFile struct {
	atomicfile.File
	inj *fault.StoreInjector
}

func (f *faultFile) Write(p []byte) (int, error) {
	switch d := f.inj.Decide(fault.OpWrite); d.Kind {
	case fault.KindCrash:
		// Persist a torn prefix, then die: the on-disk image matches a
		// kill mid-write.
		f.File.Write(p[:len(p)/2])
		f.inj.Crash()
	case fault.KindShortWrite:
		n, _ := f.File.Write(p[:len(p)/2])
		return n, fmt.Errorf("%w: short write (%d of %d bytes)", fault.ErrInjected, n, len(p))
	case fault.KindWriteErr:
		return 0, fmt.Errorf("%w: write error", fault.ErrInjected)
	}
	return f.File.Write(p)
}

func (f *faultFile) Sync() error {
	switch d := f.inj.Decide(fault.OpSync); d.Kind {
	case fault.KindCrash:
		// Killed instead of syncing: the temp was never renamed, so the
		// record file still holds its previous value.
		f.inj.Crash()
	case fault.KindSyncErr:
		return fmt.Errorf("%w: fsync error", fault.ErrInjected)
	}
	return f.File.Sync()
}
