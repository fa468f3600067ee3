// Package storage is the RIOTStore substrate [26] the paper uses to store
// blocked matrices. Every array lives in one DAF (Directly Addressable
// File): its blocks are laid out in column-major order (§6), so a block's
// byte offset follows from its coordinates and no index is stored. A
// Manager keeps one DAF per array in a directory; ShardedManager stripes
// and mirrors blocks across several of them, local or remote.
package storage

import (
	"errors"
	"fmt"
	"math/bits"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"riotshare/internal/blas"
	"riotshare/internal/blockproto"
	"riotshare/internal/prog"
)

// DAF is the Directly Addressable File format: block idx lives at byte
// offset idx*blockBytes. Since every element of a dense matrix has a
// predetermined position, no index needs to be stored (§6's storage
// scheme).
type DAF struct {
	f          *os.File
	blockBytes int64
}

// OpenDAF opens or creates a DAF with fixed block payload size.
func OpenDAF(path string, blockBytes int64) (*DAF, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	return &DAF{f: f, blockBytes: blockBytes}, nil
}

// Write stores a block payload (must be exactly blockBytes long).
func (d *DAF) Write(idx uint64, data []byte) error {
	if int64(len(data)) != d.blockBytes {
		return fmt.Errorf("storage: DAF block size %d, want %d", len(data), d.blockBytes)
	}
	_, err := d.f.WriteAt(data, int64(idx)*d.blockBytes)
	return err
}

// Read fetches a block payload, into buf when it is large enough.
func (d *DAF) Read(idx uint64, buf []byte) ([]byte, error) {
	if int64(cap(buf)) < d.blockBytes {
		buf = make([]byte, d.blockBytes)
	}
	buf = buf[:d.blockBytes]
	n, err := d.f.ReadAt(buf, int64(idx)*d.blockBytes)
	if err != nil && n != len(buf) {
		return nil, fmt.Errorf("storage: DAF read block %d: %w", idx, err)
	}
	return buf, nil
}

// Close closes the file.
func (d *DAF) Close() error { return d.f.Close() }

// Format names an on-disk block format. DAF is the only one. The type, and
// NewManager's argument of it, remain only because the benchmark of record
// passes server.Config.Format to NewManager.
type Format int

// FormatDAF is the directly addressable file, the only block format.
const FormatDAF Format = 0

// dafName is the format name a manifest records and the extension of every
// store file. Earlier builds that offered a second format recorded the same
// name for DAF stores, so they and this build reopen each other's stores.
const dafName = "daf"

// ColMajor is the paper's column-major block layout: the DAF index of block
// (r, c) in a grid with gridRows block rows.
func ColMajor(r, c int64, gridRows, gridCols int) uint64 {
	return uint64(c)*uint64(gridRows) + uint64(r)
}

// Manager stores the blocks of a program's arrays in one DAF per array.
// It is safe for concurrent use: block reads and writes may be issued from
// many goroutines (the pipelined executor and its prefetcher do), and
// concurrent reads of the same block coalesce onto one disk request.
type Manager struct {
	Dir string

	// readLatency/writeLatency (nanoseconds) simulate a slow device by
	// sleeping once per physical block request (coalesced readers share one
	// sleep). They let pipelining experiments reproduce disk-bound behavior
	// on fast local storage; zero (the default) disables the simulation.
	// SetLatency is their only setter and may run while other goroutines
	// read, so they are atomics.
	readLatency, writeLatency atomic.Int64
	// serialDevice serializes the simulated latency sleeps, modeling a
	// device that serves one request at a time (a single disk head). With
	// it, concurrent requests to one manager queue behind each other —
	// which is what makes striping across several managers (shards)
	// measurably faster for parallel reads. Only the package's own shard
	// tests set it.
	serialDevice bool
	deviceMu     sync.Mutex

	mu     sync.RWMutex // guards stores/arrays registration
	stores map[string]*DAF
	arrays map[string]*prog.Array

	// inflight coalesces concurrent reads of the same block: followers
	// wait for the leader's disk read instead of issuing a duplicate
	// request. Logical I/O accounting is the executor's job, so sharing a
	// physical read never distorts the paper-scale volumes.
	inflightMu sync.Mutex
	inflight   map[prog.BlockID]*inflightRead

	// Physical I/O counters (atomic): requests that actually reached a
	// block store. Coalesced read followers and buffer-pool hits do not
	// count, which is exactly what lets callers verify cross-query sharing
	// against logical volumes.
	physReadReqs, physReadBytes   atomic.Int64
	physWriteReqs, physWriteBytes atomic.Int64
}

// Stats is a snapshot of the manager's physical I/O counters.
type Stats struct {
	ReadReqs, ReadBytes   int64
	WriteReqs, WriteBytes int64
}

// Sub returns the I/O issued between the snapshot prev and s.
func (s Stats) Sub(prev Stats) Stats {
	return Stats{
		ReadReqs: s.ReadReqs - prev.ReadReqs, ReadBytes: s.ReadBytes - prev.ReadBytes,
		WriteReqs: s.WriteReqs - prev.WriteReqs, WriteBytes: s.WriteBytes - prev.WriteBytes,
	}
}

// SetLatency configures the simulated per-request device latency (zero
// disables). It is safe to call while I/O is in flight: requests already
// sleeping finish with the old latency, later ones use the new one.
func (m *Manager) SetLatency(read, write time.Duration) {
	m.readLatency.Store(int64(read))
	m.writeLatency.Store(int64(write))
}

// simulate sleeps for one simulated device request; on a serial device the
// sleep holds the device, queueing concurrent requests behind it.
func (m *Manager) simulate(d time.Duration) {
	if d <= 0 {
		return
	}
	if m.serialDevice {
		m.deviceMu.Lock()
		defer m.deviceMu.Unlock()
	}
	time.Sleep(d)
}

// Stats returns the physical I/O performed since the manager was created:
// block requests that reached the underlying store, in physical (stored)
// bytes. Compare against the executor's logical volumes to measure how much
// I/O was absorbed by read coalescing and the shared buffer pool.
func (m *Manager) Stats() Stats {
	return Stats{
		ReadReqs:   m.physReadReqs.Load(),
		ReadBytes:  m.physReadBytes.Load(),
		WriteReqs:  m.physWriteReqs.Load(),
		WriteBytes: m.physWriteBytes.Load(),
	}
}

// inflightRead is one in-progress coalesced block read.
type inflightRead struct {
	done chan struct{}
	blk  *blas.Matrix
	err  error
}

// NewManager creates a storage manager writing under dir. format must be
// FormatDAF; any other value is refused rather than served as DAF.
func NewManager(dir string, format Format) (*Manager, error) {
	if format != FormatDAF {
		return nil, fmt.Errorf("storage: unknown block format %d (only DAF exists)", int(format))
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &Manager{
		Dir:      dir,
		stores:   make(map[string]*DAF),
		arrays:   make(map[string]*prog.Array),
		inflight: make(map[prog.BlockID]*inflightRead),
	}, nil
}

// CheckArrayName reports whether name may name an array. An array's store
// is the file <root>/<name>.daf, and names arrive from outside the
// process (submitted specs, the block-service wire), so a name must be a
// single path element: non-empty, not "." or "..", free of path separators
// and NUL. Dots inside a name ("q3.E") are fine.
func CheckArrayName(name string) error {
	if name == "" || name == "." || name == ".." || strings.ContainsAny(name, "/\\\x00") {
		return fmt.Errorf("storage: invalid array name %q", name)
	}
	return nil
}

// storePath is the store file of one array under the manager's directory;
// it refuses names that would resolve outside it.
func (m *Manager) storePath(array string) (string, error) {
	if err := CheckArrayName(array); err != nil {
		return "", err
	}
	return filepath.Join(m.Dir, array+"."+dafName), nil
}

// Manager errors that callers classify with errors.Is rather than by
// message text: array names are legal with spaces and appear in the text.
var (
	// ErrArrayExists is wrapped by Create for an array already registered.
	ErrArrayExists = errors.New("already created")
	// ErrUnknownArray is wrapped by block access to, or Drop of, an array
	// that is not registered.
	ErrUnknownArray = errors.New("unknown array")
)

// Create opens the store for an array.
func (m *Manager) Create(arr *prog.Array) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, dup := m.stores[arr.Name]; dup {
		return fmt.Errorf("storage: array %q %w", arr.Name, ErrArrayExists)
	}
	return m.createLocked(arr)
}

// createLocked opens and registers an array's store; m.mu is held.
func (m *Manager) createLocked(arr *prog.Array) error {
	path, err := m.storePath(arr.Name)
	if err != nil {
		return err
	}
	st, err := OpenDAF(path, arr.PhysicalBlockBytes())
	if err != nil {
		return err
	}
	m.stores[arr.Name] = st
	m.arrays[arr.Name] = arr
	return nil
}

// CreateAll opens stores for every array of a program.
func (m *Manager) CreateAll(p *prog.Program) error {
	for _, arr := range p.Arrays {
		if err := m.Create(arr); err != nil {
			return err
		}
	}
	return nil
}

// scratch recycles the byte buffers blocks are serialized through, one
// sync.Pool per power-of-two size class so the few block shapes of a store
// each find their own buffers again. A DAF keeps no payload slice past
// Write (it hands it to pwrite), and readBlock has decoded a payload before
// it gives the buffer back.
var scratch [64]sync.Pool

// getScratch returns a buffer of length n.
func getScratch(n int) *[]byte {
	if bp, _ := scratch[bits.Len(uint(n))].Get().(*[]byte); bp != nil && cap(*bp) >= n {
		*bp = (*bp)[:n]
		return bp
	}
	b := make([]byte, n)
	return &b
}

func putScratch(bp *[]byte) { scratch[bits.Len(uint(cap(*bp)))].Put(bp) }

// WriteBlock serializes and stores one block.
func (m *Manager) WriteBlock(array string, r, c int64, blk *blas.Matrix) error {
	arr, st, err := m.lookup(array)
	if err != nil {
		return err
	}
	m.simulate(time.Duration(m.writeLatency.Load()))
	if blk.Rows != arr.BlockRows || blk.Cols != arr.BlockCols {
		return fmt.Errorf("storage: block shape %dx%d, array %s wants %dx%d",
			blk.Rows, blk.Cols, array, arr.BlockRows, arr.BlockCols)
	}
	bp := getScratch(8 * len(blk.Data))
	defer putScratch(bp)
	buf := blockproto.EncodeBlock((*bp)[:0], blk)
	if err := st.Write(ColMajor(r, c, arr.GridRows, arr.GridCols), buf); err != nil {
		return err
	}
	m.physWriteReqs.Add(1)
	m.physWriteBytes.Add(int64(len(buf)))
	return nil
}

// ReadBlock fetches and deserializes one block. Concurrent reads of the
// same block coalesce: one disk request serves all callers, who all receive
// the same matrix — so a block read from a store is shared and immutable,
// like one acquired from the buffer pool; a caller that wants to change it
// writes to a copy.
func (m *Manager) ReadBlock(array string, r, c int64) (*blas.Matrix, error) {
	id := prog.BlockID{Array: array, R: r, C: c}
	m.inflightMu.Lock()
	if call, ok := m.inflight[id]; ok {
		m.inflightMu.Unlock()
		<-call.done
		return call.blk, call.err
	}
	call := &inflightRead{done: make(chan struct{})}
	m.inflight[id] = call
	m.inflightMu.Unlock()

	call.blk, call.err = m.readBlock(id)
	m.inflightMu.Lock()
	delete(m.inflight, id)
	m.inflightMu.Unlock()
	close(call.done)
	return call.blk, call.err
}

// readBlock performs the physical read.
func (m *Manager) readBlock(id prog.BlockID) (*blas.Matrix, error) {
	arr, st, err := m.lookup(id.Array)
	if err != nil {
		return nil, err
	}
	m.simulate(time.Duration(m.readLatency.Load()))
	bp := getScratch(int(arr.PhysicalBlockBytes()))
	defer putScratch(bp)
	buf, err := st.Read(ColMajor(id.R, id.C, arr.GridRows, arr.GridCols), *bp)
	if err != nil {
		return nil, fmt.Errorf("storage: read %s: %w", id, err)
	}
	m.physReadReqs.Add(1)
	m.physReadBytes.Add(int64(len(buf)))
	blk, err := blockproto.DecodeBlock(arr.BlockRows, arr.BlockCols, buf)
	if err != nil {
		return nil, fmt.Errorf("storage: read %s: %w", id, err)
	}
	return blk, nil
}

func (m *Manager) lookup(array string) (*prog.Array, *DAF, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	arr, ok := m.arrays[array]
	if !ok {
		return nil, nil, fmt.Errorf("storage: %w %q", ErrUnknownArray, array)
	}
	return arr, m.stores[array], nil
}

// Drop closes and unregisters one array's store, optionally deleting its
// file. Long-running services use it to retire per-query output arrays —
// each open store holds a file descriptor, so a server that never dropped
// them would exhaust the process limit.
func (m *Manager) Drop(array string, deleteFile bool) error {
	m.mu.Lock()
	st, ok := m.stores[array]
	delete(m.stores, array)
	delete(m.arrays, array)
	m.mu.Unlock()
	if !ok {
		return fmt.Errorf("storage: %w %q", ErrUnknownArray, array)
	}
	err := st.Close()
	if deleteFile {
		path, rerr := m.storePath(array)
		if rerr == nil {
			rerr = os.Remove(path)
		}
		if err == nil {
			err = rerr
		}
	}
	return err
}

// Close closes every store.
func (m *Manager) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	var first error
	for _, st := range m.stores {
		if err := st.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
