package storage

import (
	"fmt"
	"os"
	"path/filepath"
)

// atomicWriteFile replaces path with data so that a crash at any point
// leaves either the old contents or the new ones — never a torn, empty, or
// missing file. os.Rename alone is not enough: the rename can be durable
// while the renamed file's data is still in the page cache, so a crash
// right after it could expose an empty or partially written target. The
// sequence here closes that window:
//
//  1. write the data to a temp file in the same directory (same filesystem,
//     so the rename below stays atomic),
//  2. fsync the temp file — its bytes are on disk before it becomes
//     reachable under the real name,
//  3. rename it over path — the atomic commit point,
//  4. fsync the directory — the rename's directory entry itself is durable.
//
// The temp file is removed on any failure; a stale "<path>.tmp" left by a
// crash between steps is simply overwritten by the next write and is never
// read by manifest loading.
func atomicWriteFile(path string, data []byte, perm os.FileMode) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, perm)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	dir, err := os.Open(filepath.Dir(path))
	if err != nil {
		return fmt.Errorf("sync dir of %s: %w", path, err)
	}
	err = dir.Sync()
	if cerr := dir.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("sync dir of %s: %w", path, err)
	}
	return nil
}
