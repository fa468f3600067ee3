// shard.go abstracts "one shard of a sharded store" so ShardedManager can
// stripe over local directories and remote riotblockd servers — mixed
// freely — through one interface. localShard adapts the single-directory
// Manager plus its root's manifest and store files; RemoteShard (remote.go)
// speaks the blockproto protocol to a riotblockd process.
package storage

import (
	"errors"
	"io/fs"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"riotshare/internal/blas"
	"riotshare/internal/prog"
)

// shard is what ShardedManager needs from one shard: block I/O and store
// lifecycle, the per-root manifest, and the existence/wipe primitives
// behind catalog reopen and Repair. Label identifies the shard in errors
// and ShardStats — a directory path or a host:port address.
type shard interface {
	Label() string
	Create(arr *prog.Array) error
	// Ensure is Create without the duplicate check — the idempotent form
	// repair and write-through need.
	Ensure(arr *prog.Array) error
	WriteBlock(array string, r, c int64, blk *blas.Matrix) error
	ReadBlock(array string, r, c int64) (*blas.Matrix, error)
	Drop(array string, deleteFile bool) error
	Stats() Stats
	SetLatency(read, write time.Duration)
	Close() error

	// ReadManifest returns the shard root's manifest bytes; an error
	// wrapping fs.ErrNotExist means "no manifest" (fresh or lost shard).
	ReadManifest() ([]byte, error)
	// WriteManifest atomically replaces the manifest (crash-safe).
	WriteManifest(data []byte) error
	// RemoveManifest deletes the manifest; removing an absent one is not
	// an error. DegradeShard commits a shard's offline state through it.
	RemoveManifest() error
	// StoreExists reports whether the array's store file exists — the
	// catalog-reopen intactness probe.
	StoreExists(array string) (bool, error)
	// WipeStore closes the array's store if open and deletes its file, so
	// Repair re-mirrors onto a clean slate; wiping an absent store is not
	// an error.
	WipeStore(array string) error
	// PrepareRepair readies a lost shard to be re-mirrored (recreates a
	// local directory; probes a remote server's liveness).
	PrepareRepair() error
}

// localShard adapts *Manager (one shard directory) to the shard interface.
type localShard struct {
	m   *Manager
	dir string
}

func (s *localShard) Label() string                { return s.dir }
func (s *localShard) Create(arr *prog.Array) error { return s.m.Create(arr) }
func (s *localShard) Ensure(arr *prog.Array) error { return s.m.ensure(arr) }
func (s *localShard) Drop(array string, del bool) error {
	return s.m.Drop(array, del)
}
func (s *localShard) Stats() Stats                         { return s.m.Stats() }
func (s *localShard) SetLatency(read, write time.Duration) { s.m.SetLatency(read, write) }
func (s *localShard) Close() error                         { return s.m.Close() }

func (s *localShard) WriteBlock(array string, r, c int64, blk *blas.Matrix) error {
	return s.m.WriteBlock(array, r, c, blk)
}

func (s *localShard) ReadBlock(array string, r, c int64) (*blas.Matrix, error) {
	return s.m.ReadBlock(array, r, c)
}

func (s *localShard) ReadManifest() ([]byte, error) {
	return os.ReadFile(filepath.Join(s.dir, manifestName))
}

func (s *localShard) WriteManifest(data []byte) error {
	return atomicWriteFile(filepath.Join(s.dir, manifestName), data, 0o644)
}

func (s *localShard) RemoveManifest() error {
	if err := os.Remove(filepath.Join(s.dir, manifestName)); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	return nil
}

func (s *localShard) StoreExists(array string) (bool, error) {
	path, err := s.m.storePath(array)
	if err != nil {
		return false, err
	}
	_, err = os.Stat(path)
	if err == nil {
		return true, nil
	}
	if errors.Is(err, fs.ErrNotExist) {
		return false, nil
	}
	return false, err
}

func (s *localShard) WipeStore(array string) error {
	// Close a surviving open store first (a previous partial repair may
	// hold the fd of the file about to be wiped); unknown arrays are fine.
	_ = s.m.Drop(array, false)
	path, err := s.m.storePath(array)
	if err != nil {
		return err
	}
	if err := os.Remove(path); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	return nil
}

func (s *localShard) PrepareRepair() error {
	// The lost shard may be gone directory and all.
	return os.MkdirAll(s.dir, 0o755)
}

// IsRemoteSpec reports whether a shard spec names a network address
// (host:port with a numeric port) rather than a directory. Anything
// containing a path separator is a directory; "localhost:8441" and
// "10.0.0.7:8441" are addresses.
func IsRemoteSpec(spec string) bool {
	if strings.ContainsAny(spec, "/\\") {
		return false
	}
	host, port, err := net.SplitHostPort(spec)
	if err != nil || host == "" {
		return false
	}
	_, err = strconv.Atoi(port)
	return err == nil
}
