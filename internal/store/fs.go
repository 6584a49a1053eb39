package store

import (
	"io"
	"os"
)

// fileSys is the store's filesystem seam: the calls that change a shard
// directory or make a change durable (commit, delete and Open's temp
// sweep) go through it, so tests can log them to replay crash points,
// or block inside one. Reads call the os package directly.
type fileSys interface {
	// Create opens name read-write, creating or truncating it.
	Create(name string) (file, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	// SyncDir fsyncs a directory, making the renames and removes done
	// in it durable.
	SyncDir(name string) error
}

// file is the part of *os.File an upload uses.
type file interface {
	io.Writer
	io.ReaderAt
	io.Closer
	Sync() error
}

// osFS is the fileSys backed by the os package.
type osFS struct{}

func (osFS) Create(name string) (file, error) {
	return os.OpenFile(name, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
}

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error             { return os.Remove(name) }

func (osFS) SyncDir(name string) error {
	d, err := os.Open(name)
	if err != nil {
		return err
	}
	defer d.Close() //lint:errdrop-ok opened read-only to fsync; close has nothing to flush
	return d.Sync()
}
