package durable

import (
	"errors"
	"io"
	"reflect"
	"testing"
)

var errInjected = errors.New("injected failure")

// memFS is an in-memory FS that logs every operation and fails the one
// named by fail.
type memFS struct {
	files map[string][]byte
	log   []string
	fail  string
}

type memFile struct {
	fs   *memFS
	path string
}

func (fs *memFS) do(op, path string) error {
	fs.log = append(fs.log, op+" "+path)
	if op == fs.fail {
		return errInjected
	}
	return nil
}

func (fs *memFS) Create(path string) (File, error) {
	if err := fs.do("create", path); err != nil {
		return nil, err
	}
	fs.files[path] = nil
	return &memFile{fs, path}, nil
}

func (fs *memFS) Rename(oldpath, newpath string) error {
	if err := fs.do("rename", oldpath+" "+newpath); err != nil {
		return err
	}
	fs.files[newpath] = fs.files[oldpath]
	delete(fs.files, oldpath)
	return nil
}

func (fs *memFS) Remove(path string) error {
	delete(fs.files, path)
	return fs.do("remove", path)
}

func (fs *memFS) SyncDir(dir string) { fs.do("syncdir", dir) }

func (f *memFile) Write(p []byte) (int, error) {
	if err := f.fs.do("write", f.path); err != nil {
		return 0, err
	}
	f.fs.files[f.path] = append(f.fs.files[f.path], p...)
	return len(p), nil
}

func (f *memFile) Sync() error  { return f.fs.do("sync", f.path) }
func (f *memFile) Close() error { return f.fs.do("close", f.path) }

// TestWriteFile: a successful write is exactly create → write → sync → close
// → rename → syncdir, and a failure at any step but the last returns its
// error with the file that was there byte-identical and no .tmp left.
func TestWriteFile(t *testing.T) {
	const path, tmp = "d/f", "d/f.tmp"
	body := []byte("new bytes")
	for _, fail := range []string{"", "write", "sync", "close", "rename"} {
		t.Run("fail="+fail, func(t *testing.T) {
			fs := &memFS{files: map[string][]byte{path: []byte("old")}, fail: fail}
			n, err := WriteFile(fs, path, func(w io.Writer) (int64, error) {
				n, err := w.Write(body)
				return int64(n), err
			})
			if _, ok := fs.files[tmp]; ok {
				t.Fatalf("%s left behind (log %q)", tmp, fs.log)
			}
			if fail != "" {
				if !errors.Is(err, errInjected) || n != 0 {
					t.Fatalf("WriteFile = %d, %v; want 0 and the injected error", n, err)
				}
				if got := string(fs.files[path]); got != "old" {
					t.Fatalf("a failed write left %q at %s, want the old file", got, path)
				}
				return
			}
			if err != nil || n != int64(len(body)) || string(fs.files[path]) != string(body) {
				t.Fatalf("WriteFile = %d, %v and %q at %s; want %d, nil and %q", n, err, fs.files[path], path, len(body), body)
			}
			want := []string{"create " + tmp, "write " + tmp, "sync " + tmp, "close " + tmp, "rename " + tmp + " " + path, "syncdir d"}
			if !reflect.DeepEqual(fs.log, want) {
				t.Fatalf("operations %q, want %q", fs.log, want)
			}
		})
	}
}
