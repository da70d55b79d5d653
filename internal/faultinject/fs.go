package faultinject

import (
	"fmt"
	"io/fs"
	"os"
	"sync"
	"syscall"

	"arcs/internal/vfs"
)

// FSSchedule scripts filesystem faults by global operation count, so a
// chaos test can kill a publish at an exact protocol step (the write,
// the fsync, the rename) and assert the registry's crash-safety
// contract. Counts are 1-based and each fault fires once.
type FSSchedule struct {
	// FailWriteAt makes the nth File.Write call fail with ENOSPC
	// (nothing written).
	FailWriteAt int
	// TornWriteAt makes the nth File.Write write only the first half of
	// its buffer and then fail with ENOSPC — a torn write: bytes on
	// disk, contract broken.
	TornWriteAt int
	// FailSyncAt makes the nth File.Sync call fail with EIO.
	FailSyncAt int
	// FailRenameAt makes the nth Rename call fail with ENOSPC, leaving
	// the temp file in place like a crash between write and commit.
	FailRenameAt int
	// FailReadAt makes the nth ReadFile call fail with EIO.
	FailReadAt int
	// ShortReadAt makes the nth ReadFile call return only the first half
	// of the file — a truncated read with no error, the hardest
	// corruption to catch without length validation.
	ShortReadAt int
}

// FSStats counts the faults injected so far.
type FSStats struct {
	WriteFails  int
	TornWrites  int
	SyncFails   int
	RenameFails int
	ReadFails   int
	ShortReads  int
}

// FaultFS wraps a vfs.FS with the schedule. Safe for concurrent use;
// the operation counters are shared across files so schedules address
// protocol steps, not per-file positions.
type FaultFS struct {
	inner vfs.FS
	sch   FSSchedule

	mu      sync.Mutex
	writes  int
	syncs   int
	renames int
	reads   int
	stats   FSStats
}

// WrapFS wraps inner (nil means the real filesystem) with the fault
// schedule.
func WrapFS(inner vfs.FS, sch FSSchedule) *FaultFS {
	if inner == nil {
		inner = vfs.OSFS{}
	}
	return &FaultFS{inner: inner, sch: sch}
}

// Stats reports the faults injected so far.
func (f *FaultFS) Stats() FSStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}

// MkdirAll implements vfs.FS.
func (f *FaultFS) MkdirAll(path string, perm os.FileMode) error {
	return f.inner.MkdirAll(path, perm)
}

// ReadDir implements vfs.FS.
func (f *FaultFS) ReadDir(dir string) ([]fs.DirEntry, error) { return f.inner.ReadDir(dir) }

// ReadFile implements vfs.FS with read faults applied.
func (f *FaultFS) ReadFile(name string) ([]byte, error) {
	f.mu.Lock()
	f.reads++
	fail := f.sch.FailReadAt > 0 && f.reads == f.sch.FailReadAt
	short := f.sch.ShortReadAt > 0 && f.reads == f.sch.ShortReadAt
	if fail {
		f.stats.ReadFails++
	}
	if short {
		f.stats.ShortReads++
	}
	f.mu.Unlock()
	if fail {
		return nil, fmt.Errorf("faultinject: read %s: %w", name, syscall.EIO)
	}
	raw, err := f.inner.ReadFile(name)
	if err != nil {
		return nil, err
	}
	if short {
		return raw[:len(raw)/2], nil
	}
	return raw, nil
}

// Create implements vfs.FS, returning files whose writes and syncs go
// through the schedule.
func (f *FaultFS) Create(name string) (vfs.File, error) {
	file, err := f.inner.Create(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, inner: file}, nil
}

// Open implements vfs.FS. Opened files share the same write/sync
// counters as created ones.
func (f *FaultFS) Open(name string) (vfs.File, error) {
	file, err := f.inner.Open(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, inner: file}, nil
}

// Rename implements vfs.FS with rename faults applied.
func (f *FaultFS) Rename(oldpath, newpath string) error {
	f.mu.Lock()
	f.renames++
	fail := f.sch.FailRenameAt > 0 && f.renames == f.sch.FailRenameAt
	if fail {
		f.stats.RenameFails++
	}
	f.mu.Unlock()
	if fail {
		return fmt.Errorf("faultinject: rename %s: %w", newpath, syscall.ENOSPC)
	}
	return f.inner.Rename(oldpath, newpath)
}

// Remove implements vfs.FS.
func (f *FaultFS) Remove(name string) error { return f.inner.Remove(name) }

// faultFile applies the write/sync schedule to one open file.
type faultFile struct {
	fs    *FaultFS
	inner vfs.File
}

// Write implements vfs.File with ENOSPC and torn-write faults.
func (f *faultFile) Write(p []byte) (int, error) {
	f.fs.mu.Lock()
	f.fs.writes++
	n := f.fs.writes
	fail := f.fs.sch.FailWriteAt > 0 && n == f.fs.sch.FailWriteAt
	torn := f.fs.sch.TornWriteAt > 0 && n == f.fs.sch.TornWriteAt
	if fail {
		f.fs.stats.WriteFails++
	}
	if torn {
		f.fs.stats.TornWrites++
	}
	f.fs.mu.Unlock()
	if fail {
		return 0, fmt.Errorf("faultinject: write: %w", syscall.ENOSPC)
	}
	if torn {
		written, _ := f.inner.Write(p[:len(p)/2])
		return written, fmt.Errorf("faultinject: torn write after %d bytes: %w", written, syscall.ENOSPC)
	}
	return f.inner.Write(p)
}

// Sync implements vfs.File with scheduled fsync failures.
func (f *faultFile) Sync() error {
	f.fs.mu.Lock()
	f.fs.syncs++
	fail := f.fs.sch.FailSyncAt > 0 && f.fs.syncs == f.fs.sch.FailSyncAt
	if fail {
		f.fs.stats.SyncFails++
	}
	f.fs.mu.Unlock()
	if fail {
		return fmt.Errorf("faultinject: fsync: %w", syscall.EIO)
	}
	return f.inner.Sync()
}

// Close implements vfs.File.
func (f *faultFile) Close() error { return f.inner.Close() }
