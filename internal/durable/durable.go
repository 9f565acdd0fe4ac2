// Package durable writes a file so that a crash, or a write that fails,
// leaves either the file that was there or the whole new one. It also holds
// the small file-system seam that every durable change goes through: the
// operations whose order decides what a crash leaves behind.
//
// The rule the package keeps, and that its callers keep with it: every
// create and every rename in a directory is followed by a sync of that
// directory before anything that depends on it is acknowledged. POSIX
// makes a file's bytes durable with the file's fsync, but its name only
// with the directory's.
package durable

import (
	"io"
	"os"
	"path/filepath"
)

// File is a file opened for writing through an FS.
type File interface {
	io.Writer
	Sync() error
	Close() error
}

// FS is the set of file-system changes durable state is made of.
type FS interface {
	// Create creates or truncates path for writing.
	Create(path string) (File, error)
	Rename(oldpath, newpath string) error
	Remove(path string) error
	// SyncDir makes the creates, renames and removes in dir so far durable.
	// It is best-effort: not every platform can sync a directory.
	SyncDir(dir string)
}

// OS is the real file system.
var OS FS = osFS{}

type osFS struct{}

func (osFS) Create(path string) (File, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (osFS) Remove(path string) error { return os.Remove(path) }

func (osFS) SyncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	_ = d.Sync() // best-effort, as documented on FS
	d.Close()
}

// WriteFile writes path through fs: write's bytes go to path+".tmp", which
// is synced, closed and only then renamed over path, and the directory is
// synced after the rename. On any failure the .tmp is removed, path is left
// as it was, and the error is returned. On success it returns what write
// returned.
func WriteFile(fs FS, path string, write func(io.Writer) (int64, error)) (int64, error) {
	tmp := path + ".tmp"
	f, err := fs.Create(tmp)
	if err != nil {
		return 0, err
	}
	n, err := write(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fs.Rename(tmp, path)
	}
	if err != nil {
		fs.Remove(tmp)
		return 0, err
	}
	fs.SyncDir(filepath.Dir(path))
	return n, nil
}
