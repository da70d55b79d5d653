package registry

import "arcs/internal/vfs"

// The registry's filesystem seam lives in internal/vfs, which
// internal/faultinject shares; these aliases keep the registry's public
// surface (and every chaos test written against it) unchanged. See vfs
// for the interface contract.

// FS is the filesystem surface the registry publishes through.
type FS = vfs.FS

// File is the subset of *os.File the registry needs: sequential write,
// durability, close.
type File = vfs.File

// OSFS is the real filesystem.
type OSFS = vfs.OSFS
