package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"riotshare/internal/blas"
	"riotshare/internal/prog"
)

// BlockStore is the per-array key→payload store shared by the DAF and
// LAB-tree formats.
type BlockStore interface {
	// Write stores one block payload under its linearized index.
	Write(idx uint64, data []byte) error
	// Read fetches the payload stored under idx, into buf when its capacity
	// suffices (buf may be nil), and returns the filled slice.
	Read(idx uint64, buf []byte) ([]byte, error)
	// Sync flushes buffered writes to the device.
	Sync() error
	// Close releases the store's file handle(s).
	Close() error
}

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

// Sync flushes the file.
func (d *DAF) Sync() error { return d.f.Sync() }

// Close closes the file.
func (d *DAF) Close() error { return d.f.Close() }

// labStore adapts LABTree to BlockStore. The tree mutates shared in-memory
// state (root, free list, scratch page) on both reads and writes, so the
// adapter serializes all access; the DAF needs no lock because pread/pwrite
// on one descriptor are atomic.
type labStore struct {
	mu sync.Mutex
	t  *LABTree
}

func (s *labStore) Write(idx uint64, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.t.Write(idx, data)
}

func (s *labStore) Read(idx uint64, buf []byte) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.t.Read(idx, buf)
}

func (s *labStore) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.t.Sync()
}

func (s *labStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.t.Close()
}

// Format selects the on-disk format.
type Format int

const (
	// FormatDAF is the directly addressable file.
	FormatDAF Format = iota
	// FormatLABTree is the linearized array B-tree.
	FormatLABTree
)

// String names the format.
func (f Format) String() string {
	if f == FormatLABTree {
		return "lab-tree"
	}
	return "daf"
}

// Linearization maps block coordinates to a key. Blocks are laid out in
// column-major order by default, matching §6's storage scheme.
type Linearization func(r, c int64, gridRows, gridCols int) uint64

// ColMajor is the paper's column-major block layout.
func ColMajor(r, c int64, gridRows, gridCols int) uint64 {
	return uint64(c)*uint64(gridRows) + uint64(r)
}

// RowMajor linearizes row-major.
func RowMajor(r, c int64, gridRows, gridCols int) uint64 {
	return uint64(r)*uint64(gridCols) + uint64(c)
}

// ZOrder interleaves coordinate bits (Morton order), an alternative
// studied for array storage locality.
func ZOrder(r, c int64, gridRows, gridCols int) uint64 {
	var z uint64
	for b := 0; b < 32; b++ {
		z |= (uint64(r) >> b & 1) << (2 * b)
		z |= (uint64(c) >> b & 1) << (2*b + 1)
	}
	return z
}

// Manager stores the blocks of a program's arrays in one store per array.
// It is safe for concurrent use: block reads and writes may be issued from
// many goroutines (the pipelined executor and its prefetcher do), and
// concurrent reads of the same block coalesce onto one disk request.
type Manager struct {
	Dir       string
	Format    Format
	Policy    SplitPolicy
	Linearize Linearization

	// ReadLatency/WriteLatency simulate a slow device by sleeping once per
	// physical block request (coalesced readers share one sleep). They let
	// pipelining experiments reproduce disk-bound behavior on fast local
	// storage; zero (the default) disables the simulation.
	ReadLatency  time.Duration
	WriteLatency time.Duration
	// SerialDevice serializes the simulated latency sleeps, modeling a
	// device that serves one request at a time (a single disk head). With
	// it, concurrent requests to one manager queue behind each other —
	// which is what makes striping across several managers (shards)
	// measurably faster for parallel reads.
	SerialDevice bool
	deviceMu     sync.Mutex

	mu     sync.RWMutex // guards stores/arrays registration
	stores map[string]BlockStore
	arrays map[string]*prog.Array

	// inflight coalesces concurrent reads of the same block: followers
	// wait for the leader's disk read instead of issuing a duplicate
	// request. Logical I/O accounting is the executor's job, so sharing a
	// physical read never distorts the paper-scale volumes.
	inflightMu sync.Mutex
	inflight   map[string]*inflightRead

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

// SetLatency configures the simulated per-request device latency (zero
// disables). Call it before issuing I/O; it is not synchronized with
// in-flight requests.
func (m *Manager) SetLatency(read, write time.Duration) {
	m.ReadLatency, m.WriteLatency = read, write
}

// simulate sleeps for one simulated device request; on a serial device the
// sleep holds the device, queueing concurrent requests behind it.
func (m *Manager) simulate(d time.Duration) {
	if d <= 0 {
		return
	}
	if m.SerialDevice {
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

// NewManager creates a storage manager writing under dir.
func NewManager(dir string, format Format) (*Manager, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &Manager{
		Dir:       dir,
		Format:    format,
		Linearize: ColMajor,
		stores:    make(map[string]BlockStore),
		arrays:    make(map[string]*prog.Array),
		inflight:  make(map[string]*inflightRead),
	}, nil
}

// CheckArrayName reports whether name may name an array. An array's store
// is the file <root>/<name>.<format>, and names arrive from outside the
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
	return filepath.Join(m.Dir, array+"."+m.Format.String()), nil
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
	var st BlockStore
	switch m.Format {
	case FormatLABTree:
		var t *LABTree
		t, err = OpenLABTree(path, m.Policy)
		st = &labStore{t: t}
	default:
		st, err = OpenDAF(path, arr.PhysicalBlockBytes())
	}
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
// each find their own buffers again. Neither store format keeps a payload
// slice past Write (DAF hands it to pwrite, the LAB-tree copies it into
// pages), and readBlock has decoded a payload before it gives the buffer
// back.
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
	m.simulate(m.WriteLatency)
	if blk.Rows != arr.BlockRows || blk.Cols != arr.BlockCols {
		return fmt.Errorf("storage: block shape %dx%d, array %s wants %dx%d",
			blk.Rows, blk.Cols, array, arr.BlockRows, arr.BlockCols)
	}
	bp := getScratch(8 * len(blk.Data))
	defer putScratch(bp)
	buf := *bp
	for i, v := range blk.Data {
		binary.LittleEndian.PutUint64(buf[i*8:], math.Float64bits(v))
	}
	if err := st.Write(m.Linearize(r, c, arr.GridRows, arr.GridCols), buf); err != nil {
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
	key := readKey(array, r, c)
	m.inflightMu.Lock()
	if call, ok := m.inflight[key]; ok {
		m.inflightMu.Unlock()
		<-call.done
		return call.blk, call.err
	}
	call := &inflightRead{done: make(chan struct{})}
	m.inflight[key] = call
	m.inflightMu.Unlock()

	call.blk, call.err = m.readBlock(array, r, c)
	m.inflightMu.Lock()
	delete(m.inflight, key)
	m.inflightMu.Unlock()
	close(call.done)
	return call.blk, call.err
}

// readBlock performs the physical read.
func (m *Manager) readBlock(array string, r, c int64) (*blas.Matrix, error) {
	arr, st, err := m.lookup(array)
	if err != nil {
		return nil, err
	}
	m.simulate(m.ReadLatency)
	want := 8 * arr.BlockRows * arr.BlockCols
	bp := getScratch(want)
	defer putScratch(bp)
	buf, err := st.Read(m.Linearize(r, c, arr.GridRows, arr.GridCols), *bp)
	if err != nil {
		return nil, fmt.Errorf("storage: read %s[%d,%d]: %w", array, r, c, err)
	}
	m.physReadReqs.Add(1)
	m.physReadBytes.Add(int64(len(buf)))
	if len(buf) != want {
		return nil, fmt.Errorf("storage: %s[%d,%d] payload %d bytes, want %d", array, r, c, len(buf), want)
	}
	blk := blas.NewMatrix(arr.BlockRows, arr.BlockCols)
	for i := range blk.Data {
		blk.Data[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[i*8:]))
	}
	return blk, nil
}

func readKey(array string, r, c int64) string {
	return fmt.Sprintf("%s[%d,%d]", array, r, c)
}

func (m *Manager) lookup(array string) (*prog.Array, BlockStore, error) {
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
