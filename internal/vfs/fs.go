// Package vfs is the filesystem seam of the segmentation-model
// registry, shared with internal/faultinject. It is an interface for
// the same reason dataset.Source is: the chaos suite wraps the real
// implementation with internal/faultinject to script torn writes,
// ENOSPC, fsync faults and silent short reads at exact call positions.
// Production code always uses OSFS.
package vfs

import (
	"io"
	"io/fs"
	"os"
)

// FS is the write-side filesystem surface: enough to publish files
// crash-safely (temp file + fsync + rename) and to scan directories.
type FS interface {
	MkdirAll(path string, perm os.FileMode) error
	ReadDir(dir string) ([]fs.DirEntry, error)
	ReadFile(name string) ([]byte, error)
	// Create opens name for writing (O_WRONLY|O_CREATE|O_TRUNC).
	Create(name string) (File, error)
	// Open opens name read-only; callers use it to fsync directories
	// after renames.
	Open(name string) (File, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
}

// File is the subset of *os.File the write side needs: sequential
// write, durability, close.
type File interface {
	io.Writer
	Sync() error
	Close() error
}

// OSFS is the real filesystem.
type OSFS struct{}

// MkdirAll implements FS.
func (OSFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }

// ReadDir implements FS.
func (OSFS) ReadDir(dir string) ([]fs.DirEntry, error) { return os.ReadDir(dir) }

// ReadFile implements FS.
func (OSFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

// Create implements FS.
func (OSFS) Create(name string) (File, error) {
	return os.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
}

// Open implements FS.
func (OSFS) Open(name string) (File, error) { return os.Open(name) }

// Rename implements FS.
func (OSFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

// Remove implements FS.
func (OSFS) Remove(name string) error { return os.Remove(name) }
