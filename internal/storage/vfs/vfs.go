// Package vfs is the filesystem seam under Kaleido's spill path: a minimal
// create/read/write/sync/remove interface threaded through the write queue,
// the level builders, the part rewriter, and the prefetch readers. Production
// code runs on the zero-value OS implementation (plain *os.File); tests and
// Config.Faults substitute a deterministic fault-injecting implementation
// (FaultFS) to exercise the retry, integrity, and abort paths against seeded
// ENOSPC, EIO, short writes, latency, and bit flips.
package vfs

import (
	"io"
	"os"
)

// File is the subset of *os.File the spill path uses: append-only sequential
// writes (the write queue), positioned reads (prefetch and random access),
// and lifecycle. Size replaces Stat — the only metadata the storage layer
// ever asks for.
type File interface {
	io.Writer
	io.ReaderAt
	io.Closer
	// Name returns the path the file was created with.
	Name() string
	// Size returns the current byte length of the file.
	Size() (int64, error)
	// Sync flushes the file's data to stable storage.
	Sync() error
}

// FS creates and removes spill files and directories. Implementations must
// be safe for concurrent use.
type FS interface {
	// Create opens name for read/write, creating or truncating it.
	Create(name string) (File, error)
	// Remove deletes a file.
	Remove(name string) error
	// MkdirAll creates a directory path.
	MkdirAll(path string) error
	// MkdirTemp creates a fresh directory under dir (pattern as in
	// os.MkdirTemp) and returns its path.
	MkdirTemp(dir, pattern string) (string, error)
	// RemoveAll deletes a directory tree.
	RemoveAll(path string) error
}

// OS is the production FS: plain os calls. The zero value is ready to use.
type OS struct{}

// Create implements FS.
func (OS) Create(name string) (File, error) {
	f, err := os.OpenFile(name, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	return osFile{f}, nil
}

// Remove implements FS.
func (OS) Remove(name string) error { return os.Remove(name) }

// MkdirAll implements FS.
func (OS) MkdirAll(path string) error { return os.MkdirAll(path, 0o755) }

// MkdirTemp implements FS.
func (OS) MkdirTemp(dir, pattern string) (string, error) { return os.MkdirTemp(dir, pattern) }

// RemoveAll implements FS.
func (OS) RemoveAll(path string) error { return os.RemoveAll(path) }

// osFile adapts *os.File to File (Size via Stat).
type osFile struct{ *os.File }

func (f osFile) Size() (int64, error) {
	st, err := f.Stat()
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// OrOS returns fs, or the zero-value OS implementation when fs is nil — the
// default-resolution helper every layer that accepts an optional FS uses.
func OrOS(fs FS) FS {
	if fs == nil {
		return OS{}
	}
	return fs
}
