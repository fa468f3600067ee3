// shard.go defines "one shard root" — the unit a ShardedManager stripes
// over, local directories and remote riotblockd servers mixed freely. A
// *Manager is the local shard root (its directory plus that directory's
// manifest); RemoteShard (remote.go) is the same root behind a riotblockd,
// which answers every shard-root request by calling these Manager methods.
package storage

import (
	"errors"
	"io/fs"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"riotshare/internal/prog"
)

// shard is what ShardedManager needs from one shard root: block I/O and
// store lifecycle, the per-root manifest, and the existence/wipe
// primitives behind catalog reopen and Repair.
type shard interface {
	Backend
	// Ensure is Create without the duplicate check — the idempotent form
	// catalog reopen and repair need.
	Ensure(arr *prog.Array) error

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

var (
	_ shard = (*Manager)(nil)
	_ shard = (*RemoteShard)(nil)
)

// manifestName is the per-shard-root manifest file.
const manifestName = "MANIFEST.json"

// Ensure registers the array unless it is already registered with the
// same geometry. A registration of a different shape is a stale leftover
// (an earlier session's same-named array, on a long-lived block server) and
// is reopened under the new geometry, reusing the store file the way a
// fresh Manager would.
func (m *Manager) Ensure(arr *prog.Array) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if prev, ok := m.arrays[arr.Name]; ok {
		if sameGeometry(prev, arr) {
			return nil
		}
		st := m.stores[arr.Name]
		delete(m.stores, arr.Name)
		delete(m.arrays, arr.Name)
		if err := st.Close(); err != nil {
			return err
		}
	}
	return m.createLocked(arr)
}

// sameGeometry reports whether two registrations of one array name agree
// on block shape, grid shape, and logical block bytes — everything the
// store layout depends on.
func sameGeometry(a, b *prog.Array) bool {
	return a.BlockRows == b.BlockRows && a.BlockCols == b.BlockCols &&
		a.GridRows == b.GridRows && a.GridCols == b.GridCols &&
		a.LogicalBlockBytes == b.LogicalBlockBytes
}

// ReadManifest returns the manifest of this shard root (the manager's
// directory); a missing one satisfies errors.Is(err, fs.ErrNotExist).
func (m *Manager) ReadManifest() ([]byte, error) {
	return os.ReadFile(filepath.Join(m.Dir, manifestName))
}

// WriteManifest atomically replaces this shard root's manifest: a crash
// leaves the old manifest or the new one, never a torn file.
func (m *Manager) WriteManifest(data []byte) error {
	return atomicWriteFile(filepath.Join(m.Dir, manifestName), data, 0o644)
}

// RemoveManifest deletes this shard root's manifest (absent is fine).
func (m *Manager) RemoveManifest() error {
	if err := os.Remove(filepath.Join(m.Dir, manifestName)); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	return nil
}

// StoreExists reports whether the array's store file exists under the
// manager's directory, registered or not.
func (m *Manager) StoreExists(array string) (bool, error) {
	path, err := m.storePath(array)
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

// WipeStore closes the array's store if it is open and deletes its file;
// wiping an absent store is not an error.
func (m *Manager) WipeStore(array string) error {
	path, err := m.storePath(array)
	if err != nil {
		return err
	}
	// Close a surviving open store first (a previous partial repair may
	// hold the fd of the file about to be wiped); unknown arrays are fine.
	_ = m.Drop(array, false)
	if err := os.Remove(path); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	return nil
}

// PrepareRepair recreates the manager's directory: a lost shard may be
// gone directory and all.
func (m *Manager) PrepareRepair() error {
	return os.MkdirAll(m.Dir, 0o755)
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
