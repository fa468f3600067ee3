// remote.go is the client side of the riotblockd network block service: a
// RemoteShard turns a `host:port` shard spec into a storage.Backend (and a
// ShardedManager shard) by speaking the blockproto protocol over a small
// pool of TCP connections. Requests pipeline: many in-flight requests share
// one connection, matched to responses by FIFO order, so a striped read
// pays one round-trip of latency for a whole batch instead of one per
// block. Every operation has a per-attempt timeout and a retry-with-backoff
// loop that classifies failures — timeouts and broken connections are
// transient and retried on a fresh connection; connection-refused and
// exhausted retries are persistent and surface as ErrShardUnavailable, the
// signal on which ShardedManager degrades the shard so replica fallback and
// Repair take over.
package storage

import (
	"errors"
	"fmt"
	"io/fs"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"riotshare/internal/blas"
	"riotshare/internal/blockproto"
	"riotshare/internal/prog"
)

// ErrShardUnavailable marks a persistent connection-level failure against a
// remote shard: the server refused the connection, or transient failures
// survived every retry. A ShardedManager that sees it degrades the shard
// (replicas permitting) instead of failing queries; Repair brings the shard
// back once its server is reachable again.
var ErrShardUnavailable = errors.New("storage: remote shard unavailable")

// RemoteOptions tunes a RemoteShard client. The zero value gets sensible
// defaults (4 connections, 2s dial, 10s per-attempt op timeout, 2 retries,
// 50ms initial backoff).
type RemoteOptions struct {
	// PoolSize caps the pooled TCP connections per shard; requests beyond
	// it pipeline onto existing connections in round-robin order.
	PoolSize int
	// DialTimeout bounds establishing one TCP connection.
	DialTimeout time.Duration
	// OpTimeout bounds one request attempt end-to-end (write + response).
	// A timed-out attempt kills its connection — responses are matched by
	// FIFO order, so a desynced connection cannot be reused — and counts
	// as transient.
	OpTimeout time.Duration
	// Retries is how many additional attempts follow a transient failure
	// (timeout, broken/reset connection). Application errors the server
	// answers (unknown array, bad request) are never retried.
	Retries int
	// RetryBackoff is the sleep before the first retry, doubling per
	// retry.
	RetryBackoff time.Duration
}

// withDefaults fills unset options.
func (o RemoteOptions) withDefaults() RemoteOptions {
	if o.PoolSize <= 0 {
		o.PoolSize = 4
	}
	if o.DialTimeout <= 0 {
		o.DialTimeout = 2 * time.Second
	}
	if o.OpTimeout <= 0 {
		o.OpTimeout = 10 * time.Second
	}
	if o.Retries < 0 {
		o.Retries = 0
	} else if o.Retries == 0 {
		o.Retries = 2
	}
	if o.RetryBackoff <= 0 {
		o.RetryBackoff = 50 * time.Millisecond
	}
	return o
}

// RemoteShard is a storage.Backend served by one riotblockd process. It is
// safe for concurrent use; concurrent requests pipeline across the
// connection pool. It implements the shard interface exactly as a local
// Manager does, so a ShardedManager stripes over remote and local shards
// interchangeably.
type RemoteShard struct {
	addr string
	opt  RemoteOptions

	mu     sync.Mutex
	conns  []*remoteConn
	next   int
	closed bool
	// dialing counts dials in flight; each holds a pool slot until it
	// ends. dialed (over mu) wakes callers waiting for one to end.
	dialing int
	dialed  sync.Cond

	// created tracks arrays registered through THIS client, mirroring a
	// local Manager's registry: Create refuses duplicates within a
	// session, but a registration left on the long-lived server by an
	// earlier session is stale and silently reused — exactly as a fresh
	// Manager reuses an existing store file.
	createdMu sync.Mutex
	created   map[string]struct{}

	dials    atomic.Int64
	retries  atomic.Int64
	timeouts atomic.Int64
	// wlockWait totals, in nanoseconds, the time requests waited for a
	// connection's write lock held by another request; pendingMax is the
	// deepest pending queue seen on any connection.
	wlockWait  atomic.Int64
	pendingMax atomic.Int64
}

// RemoteStats counts a client's connection-level events — the
// observability hook the failure-classification tests assert against.
type RemoteStats struct {
	// Dials counts TCP connections established.
	Dials int64 `json:"dials"`
	// Retries counts attempts re-issued after a transient failure.
	Retries int64 `json:"retries"`
	// Timeouts counts attempts that exceeded OpTimeout.
	Timeouts int64 `json:"timeouts"`
	// WriteLockWait totals the time requests waited for a connection's
	// write lock while another request held it (an uncontended lock adds
	// nothing). Each request frame is written under that lock, so this is
	// the time requests queued behind other requests' writes.
	WriteLockWait time.Duration `json:"writeLockWait"`
	// PendingMax is the deepest queue of requests awaiting their replies
	// seen on any one connection, counting the request just queued.
	PendingMax int64 `json:"pendingMax"`
}

// NewRemoteShard creates a client for the riotblockd server at addr
// (host:port). No connection is made until the first operation, so a
// front-end can open a store whose servers come up later — or never, in
// which case operations fail with ErrShardUnavailable and the shard runs
// degraded.
func NewRemoteShard(addr string, opt RemoteOptions) *RemoteShard {
	s := &RemoteShard{addr: addr, opt: opt.withDefaults(), created: make(map[string]struct{})}
	s.dialed.L = &s.mu
	return s
}

// RemoteStats snapshots the client's connection-level counters.
func (s *RemoteShard) RemoteStats() RemoteStats {
	return RemoteStats{
		Dials: s.dials.Load(), Retries: s.retries.Load(), Timeouts: s.timeouts.Load(),
		WriteLockWait: time.Duration(s.wlockWait.Load()), PendingMax: s.pendingMax.Load(),
	}
}

// remoteConn is one pooled connection: writes are serialized, responses
// are read by a dedicated goroutine and delivered to pending calls in FIFO
// order (the protocol's pipelining contract).
type remoteConn struct {
	conn    net.Conn
	wmu     sync.Mutex
	pending chan *pendingCall
	broken  atomic.Bool
	drainMu sync.Mutex
}

// pendingCall is one in-flight request awaiting its response.
type pendingCall struct {
	done    chan struct{}
	status  byte
	payload []byte
	err     error
}

// readLoop delivers responses to pending calls in order until the
// connection dies.
func (rc *remoteConn) readLoop() {
	for {
		_, status, payload, err := blockproto.ReadFrame(rc.conn)
		if err != nil {
			rc.fail(fmt.Errorf("read response: %w", err))
			return
		}
		var call *pendingCall
		select {
		case call = <-rc.pending:
		default:
		}
		if call == nil {
			// A response with no outstanding request: protocol desync.
			rc.fail(errors.New("unsolicited response frame"))
			return
		}
		call.status, call.payload = status, payload
		close(call.done)
	}
}

// fail marks the connection broken, closes it, and fails every pending
// call with a transient error so their callers retry elsewhere.
func (rc *remoteConn) fail(err error) {
	rc.broken.Store(true)
	rc.conn.Close()
	rc.drainMu.Lock()
	defer rc.drainMu.Unlock()
	for {
		select {
		case call := <-rc.pending:
			call.err = &transientError{err}
			close(call.done)
		default:
			return
		}
	}
}

// transientError wraps connection-level failures worth retrying.
type transientError struct{ err error }

func (e *transientError) Error() string { return e.err.Error() }
func (e *transientError) Unwrap() error { return e.err }

// ServerError is an application-level error the server answered with: the
// operation reached the server and failed there (unknown array, bad
// request, store I/O error). It is never retried and never degrades the
// shard — the server is alive.
type ServerError struct {
	// Status is the blockproto status code.
	Status byte
	// Msg is the server's error text.
	Msg string
}

// Error formats the server-side failure.
func (e *ServerError) Error() string { return e.Msg }

// Is lets a StatusNotFound answer satisfy errors.Is(err, fs.ErrNotExist),
// so manifest loading treats a missing remote manifest exactly like a
// missing local file.
func (e *ServerError) Is(target error) bool {
	return target == fs.ErrNotExist && e.Status == blockproto.StatusNotFound
}

// conn returns a healthy pooled connection, dialing a new one while the
// pool is below PoolSize (so concurrency spreads across connections before
// it pipelines onto them). A dial holds its pool slot from the moment it is
// decided, so concurrent callers never dial more than PoolSize connections:
// once the slots are taken a caller pipelines onto a live connection, or
// waits for an in-flight dial when none is live yet.
func (s *RemoteShard) conn() (*remoteConn, error) {
	s.mu.Lock()
	for {
		if s.closed {
			s.mu.Unlock()
			return nil, errors.New("storage: remote shard client closed")
		}
		// Drop broken connections.
		live := s.conns[:0]
		for _, rc := range s.conns {
			if !rc.broken.Load() {
				live = append(live, rc)
			}
		}
		s.conns = live
		if len(s.conns)+s.dialing < s.opt.PoolSize {
			break
		}
		if len(s.conns) > 0 {
			rc := s.conns[s.next%len(s.conns)]
			s.next++
			s.mu.Unlock()
			return rc, nil
		}
		s.dialed.Wait()
	}
	s.dialing++
	s.mu.Unlock()

	c, err := net.DialTimeout("tcp", s.addr, s.opt.DialTimeout)
	var rc *remoteConn
	if err == nil {
		s.dials.Add(1)
		if tc, ok := c.(*net.TCPConn); ok {
			tc.SetNoDelay(true)
		}
		rc = &remoteConn{conn: c, pending: make(chan *pendingCall, 1024)}
		go rc.readLoop()
	}
	s.mu.Lock()
	s.dialing--
	s.dialed.Broadcast()
	closed := s.closed
	if err == nil && !closed {
		s.conns = append(s.conns, rc)
	}
	s.mu.Unlock()
	switch {
	case err != nil:
		return nil, classifyDial(err)
	case closed:
		c.Close()
		return nil, errors.New("storage: remote shard client closed")
	}
	return rc, nil
}

// classifyDial maps dial failures: connection-refused means the server is
// down — persistent, degrade now; everything else (timeout, unreachable)
// is worth a retry before giving up.
func classifyDial(err error) error {
	if errors.Is(err, syscall.ECONNREFUSED) {
		return fmt.Errorf("%w: dial %s", ErrShardUnavailable, err)
	}
	return &transientError{fmt.Errorf("dial: %w", err)}
}

// attempt performs one request/response round-trip on one connection.
func (s *RemoteShard) attempt(op byte, req *blockproto.Enc) (byte, []byte, error) {
	rc, err := s.conn()
	if err != nil {
		return 0, nil, err
	}
	call := &pendingCall{done: make(chan struct{})}
	if !rc.wmu.TryLock() {
		t0 := time.Now()
		rc.wmu.Lock()
		s.wlockWait.Add(int64(time.Since(t0)))
	}
	if rc.broken.Load() {
		rc.wmu.Unlock()
		return 0, nil, &transientError{errors.New("connection already failed")}
	}
	rc.pending <- call
	s.notePending(int64(len(rc.pending)))
	rc.conn.SetWriteDeadline(time.Now().Add(s.opt.OpTimeout))
	err = blockproto.WriteFrame(rc.conn, op, req)
	rc.conn.SetWriteDeadline(time.Time{})
	rc.wmu.Unlock()
	if err != nil {
		rc.fail(fmt.Errorf("write request: %w", err))
		<-call.done
		return 0, nil, call.err
	}
	timer := time.NewTimer(s.opt.OpTimeout)
	defer timer.Stop()
	select {
	case <-call.done:
	case <-timer.C:
		// The response may still arrive, but a FIFO connection that
		// skipped a response can never be trusted again: kill it, fail
		// everything pending on it, retry on a fresh connection.
		s.timeouts.Add(1)
		rc.fail(fmt.Errorf("request timed out after %v", s.opt.OpTimeout))
		<-call.done
	}
	if call.err != nil {
		return 0, nil, call.err
	}
	return call.status, call.payload, nil
}

// notePending raises pendingMax to a connection's pending-queue depth.
func (s *RemoteShard) notePending(depth int64) {
	for seen := s.pendingMax.Load(); depth > seen; seen = s.pendingMax.Load() {
		if s.pendingMax.CompareAndSwap(seen, depth) {
			return
		}
	}
}

// do runs one operation with retry-with-backoff: transient failures retry
// up to Retries times on fresh connections; persistent failures (refused,
// retries exhausted) come back wrapping ErrShardUnavailable; server-side
// application errors return as *ServerError immediately.
func (s *RemoteShard) do(op byte, req *blockproto.Enc) ([]byte, error) {
	backoff := s.opt.RetryBackoff
	for att := 0; ; att++ {
		status, payload, err := s.attempt(op, req)
		if err == nil {
			if status == blockproto.StatusOK {
				return payload, nil
			}
			msg := blockproto.NewDec(payload).Str()
			if msg == "" {
				msg = fmt.Sprintf("server error (status %d)", status)
			}
			return nil, &ServerError{Status: status, Msg: msg}
		}
		var tr *transientError
		if !errors.As(err, &tr) {
			// Persistent already (refused, client closed).
			return nil, err
		}
		if att >= s.opt.Retries {
			return nil, fmt.Errorf("%w: %s: %v (after %d attempts)", ErrShardUnavailable, s.addr, err, att+1)
		}
		s.retries.Add(1)
		time.Sleep(backoff)
		backoff *= 2
	}
}

// Ping checks server liveness over the protocol.
func (s *RemoteShard) Ping() error {
	_, err := s.do(blockproto.OpPing, nil)
	return err
}

// create registers an array's store on the server with the ensure flag
// set, so the server runs Manager.Ensure for it.
func (s *RemoteShard) create(arr *prog.Array) error {
	e := new(blockproto.Enc).Str(arr.Name).
		U32(uint32(arr.BlockRows)).U32(uint32(arr.BlockCols)).
		U32(uint32(arr.GridRows)).U32(uint32(arr.GridCols)).
		I64(arr.LogicalBlockBytes).U8(1)
	_, err := s.do(blockproto.OpCreate, e)
	return err
}

// Create registers an array's store on the server (error on duplicates,
// like Manager.Create). Duplicate detection is client-session-scoped: a
// registration left on the server by an earlier session is stale and
// reused, the way a fresh local Manager reuses an existing store file —
// so the wire request always carries the ensure flag.
func (s *RemoteShard) Create(arr *prog.Array) error {
	s.createdMu.Lock()
	if _, dup := s.created[arr.Name]; dup {
		s.createdMu.Unlock()
		return fmt.Errorf("storage: array %q %w", arr.Name, ErrArrayExists)
	}
	s.created[arr.Name] = struct{}{}
	s.createdMu.Unlock()
	if err := s.create(arr); err != nil {
		s.forget(arr.Name)
		return err
	}
	return nil
}

// Ensure registers an array's store on the server with Manager.Ensure's
// rule: same geometry is a no-op, a different one re-registers.
func (s *RemoteShard) Ensure(arr *prog.Array) error {
	if err := s.create(arr); err != nil {
		return err
	}
	s.createdMu.Lock()
	s.created[arr.Name] = struct{}{}
	s.createdMu.Unlock()
	return nil
}

// forget drops an array from the session's created-set so a later Create
// may register it anew.
func (s *RemoteShard) forget(array string) {
	s.createdMu.Lock()
	delete(s.created, array)
	s.createdMu.Unlock()
}

// CreateAll registers stores for every array of a program.
func (s *RemoteShard) CreateAll(p *prog.Program) error {
	for _, arr := range p.Arrays {
		if err := s.Create(arr); err != nil {
			return err
		}
	}
	return nil
}

// WriteBlock sends one block to the server.
func (s *RemoteShard) WriteBlock(array string, r, c int64, blk *blas.Matrix) error {
	e := new(blockproto.Enc).Str(array).I64(r).I64(c).Block(blk)
	_, err := s.do(blockproto.OpWrite, e)
	if err != nil {
		return fmt.Errorf("storage: remote write %s @%s: %w", prog.BlockID{Array: array, R: r, C: c}, s.addr, err)
	}
	return nil
}

// ReadBlock fetches one block from the server. Concurrent reads pipeline
// across the connection pool; the server coalesces duplicate reads.
func (s *RemoteShard) ReadBlock(array string, r, c int64) (*blas.Matrix, error) {
	e := new(blockproto.Enc).Str(array).I64(r).I64(c)
	payload, err := s.do(blockproto.OpRead, e)
	if err != nil {
		return nil, fmt.Errorf("storage: remote read %s @%s: %w", prog.BlockID{Array: array, R: r, C: c}, s.addr, err)
	}
	d := blockproto.NewDec(payload)
	return d.Block(), d.Err()
}

// Drop closes and unregisters an array's store on the server.
func (s *RemoteShard) Drop(array string, deleteFile bool) error {
	e := new(blockproto.Enc).Str(array)
	if deleteFile {
		e.U8(1)
	} else {
		e.U8(0)
	}
	_, err := s.do(blockproto.OpDrop, e)
	if err == nil {
		s.forget(array)
	}
	return err
}

// Stats fetches the server's physical I/O counters — cumulative since the
// server process started, like a local manager's counters since creation.
// An unreachable server reports zeros.
func (s *RemoteShard) Stats() Stats {
	payload, err := s.do(blockproto.OpStats, nil)
	if err != nil {
		return Stats{}
	}
	d := blockproto.NewDec(payload)
	return Stats{ReadReqs: d.I64(), ReadBytes: d.I64(), WriteReqs: d.I64(), WriteBytes: d.I64()}
}

// ReadManifest fetches the shard root's manifest; a missing manifest
// satisfies errors.Is(err, fs.ErrNotExist) like a missing local file, and
// an unreachable server reads as "manifest lost" too — which is exactly
// what lets a replicated front-end open with a dead server degraded.
func (s *RemoteShard) ReadManifest() ([]byte, error) {
	payload, err := s.do(blockproto.OpManifest, new(blockproto.Enc).U8(blockproto.ManifestGet))
	if err != nil {
		return nil, err
	}
	d := blockproto.NewDec(payload)
	data := d.Blob()
	return data, d.Err()
}

// WriteManifest atomically replaces the shard root's manifest.
func (s *RemoteShard) WriteManifest(data []byte) error {
	e := new(blockproto.Enc).U8(blockproto.ManifestPut).Blob(data)
	_, err := s.do(blockproto.OpManifest, e)
	return err
}

// RemoveManifest deletes the shard root's manifest (absent is fine).
func (s *RemoteShard) RemoveManifest() error {
	_, err := s.do(blockproto.OpManifest, new(blockproto.Enc).U8(blockproto.ManifestDel))
	return err
}

// StoreExists reports whether the array's store file exists on the server.
func (s *RemoteShard) StoreExists(array string) (bool, error) {
	payload, err := s.do(blockproto.OpStat, new(blockproto.Enc).Str(array))
	if err != nil {
		return false, err
	}
	d := blockproto.NewDec(payload)
	exists := d.U8() != 0
	return exists, d.Err()
}

// WipeStore closes and deletes the array's store file on the server.
func (s *RemoteShard) WipeStore(array string) error {
	_, err := s.do(blockproto.OpWipe, new(blockproto.Enc).Str(array))
	if err == nil {
		s.forget(array)
	}
	return err
}

// PrepareRepair probes the server: repairing a remote shard needs its
// riotblockd back up (the server owns the directory).
func (s *RemoteShard) PrepareRepair() error { return s.Ping() }

// Close closes every pooled connection. The server and its data are
// untouched.
func (s *RemoteShard) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	conns := s.conns
	s.conns = nil
	s.mu.Unlock()
	for _, rc := range conns {
		rc.fail(errors.New("client closed"))
	}
	return nil
}
