// Package blockd is the network block server behind cmd/riotblockd: it
// exposes exactly one shard root — a single-directory storage.Manager, the
// local shard — over the blockproto wire protocol, turning a shard
// directory into a shard address. Every request is answered by the
// Manager method a local shard runs for it, so a remote shard root behaves
// exactly like a local one. A ShardedManager front-end
// (riotshared) connects one remote-shard client per address and stripes
// blocks across servers exactly as it stripes across local directories:
// placement, manifests, fingerprints, and replication semantics are
// bit-identical.
//
// Each accepted connection is served by one goroutine that answers
// requests strictly in arrival order, so pipelining clients can match
// responses to requests by position. Concurrency comes from connections:
// the underlying Manager is safe for concurrent use and coalesces
// duplicate reads across them.
package blockd

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"log"
	"math"
	"net"
	"strings"
	"sync"
	"time"

	"riotshare/internal/blockproto"
	"riotshare/internal/prog"
	"riotshare/internal/storage"
	"riotshare/internal/telemetry"
)

// Options configures a Server beyond its root directory.
type Options struct {
	// Format selects the on-disk block format (default DAF). It must match
	// the front-end's format; the manifest the front-end writes through
	// OpManifest records and validates it.
	Format storage.Format
	// SerialDevice serializes simulated-latency requests, modeling a
	// one-request-at-a-time device (see storage.Manager.SerialDevice).
	SerialDevice bool
	// Logf, when set, receives one line per accepted connection and per
	// connection-fatal error. Nil silences the server (tests).
	Logf func(format string, args ...any)
}

// Server serves one shard root over the blockproto protocol.
type Server struct {
	opt Options
	mgr *storage.Manager

	// Telemetry (built once in New, read-only afterwards): per-op
	// latency histograms and non-OK counters keyed by opcode, plus the
	// registry the -metrics-addr sidecar scrapes.
	reg    *telemetry.Registry
	opLat  map[byte]*telemetry.Histogram
	opErrs map[byte]*telemetry.Counter

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// New creates a server over the shard root directory, creating it if
// needed. Call Serve or ListenAndServe to start answering.
func New(root string, opt Options) (*Server, error) {
	mgr, err := storage.NewManager(root, opt.Format)
	if err != nil {
		return nil, err
	}
	mgr.SerialDevice = opt.SerialDevice
	s := &Server{opt: opt, mgr: mgr, conns: make(map[net.Conn]struct{})}
	s.initMetrics()
	return s, nil
}

// ListenAndServe listens on addr (TCP) and serves until Close. It returns
// once the listener is accepting, serving in background goroutines — the
// pattern in-process tests and cmd/riotblockd both use; the caller owns
// shutdown via Close.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	// Publish the listener before Serve's goroutine runs, so Addr() is
	// valid the moment this returns.
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return errors.New("blockd: server closed")
	}
	s.ln = ln
	s.mu.Unlock()
	go s.Serve(ln)
	return nil
}

// Addr returns the bound listen address once ListenAndServe (or Serve) has
// a listener — "" before that. With ":0" this is how tests learn the port.
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Serve accepts connections on ln until Close (or a fatal accept error)
// and answers each on its own goroutine.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return errors.New("blockd: server closed")
	}
	s.ln = ln // idempotent when ListenAndServe already published it
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.serveConn(conn)
	}
}

// Close stops the listener, closes every live connection and the block
// stores, and waits for connection goroutines to drain. Safe to call more
// than once.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	s.wg.Wait()
	if cerr := s.mgr.Close(); err == nil {
		err = cerr
	}
	return err
}

// logf logs through Options.Logf when set.
func (s *Server) logf(format string, args ...any) {
	if s.opt.Logf != nil {
		s.opt.Logf(format, args...)
	}
}

// serveConn answers one connection's requests in order until EOF or a
// connection-fatal error.
func (s *Server) serveConn(conn net.Conn) {
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		s.wg.Done()
	}()
	for {
		version, op, payload, err := blockproto.ReadFrame(conn)
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) && !isConnReset(err) {
				s.logf("blockd: %s: read: %v", conn.RemoteAddr(), err)
			}
			return
		}
		t0 := time.Now()
		status, resp := s.handle(version, op, payload)
		s.observeOp(op, status, time.Since(t0))
		if err := blockproto.WriteFrame(conn, status, resp); err != nil {
			if !errors.Is(err, net.ErrClosed) && !isConnReset(err) {
				s.logf("blockd: %s: write: %v", conn.RemoteAddr(), err)
			}
			return
		}
	}
}

// isConnReset matches the peer-went-away errors a killed client leaves
// behind; they are routine, not log-worthy.
func isConnReset(err error) bool {
	return err != nil && (strings.Contains(err.Error(), "connection reset") ||
		strings.Contains(err.Error(), "broken pipe"))
}

// errStatus maps a handler error to its wire status and message payload.
func errStatus(status byte, err error) (byte, []byte) {
	return status, new(blockproto.Enc).Str(err.Error()).Bytes()
}

// reply answers a Manager call: StatusOK with the payload, or the error's
// status. Manager errors are classified by identity, never by message —
// array names are legal with spaces and appear in the text.
func reply(payload []byte, err error) (byte, []byte) {
	switch {
	case err == nil:
		return blockproto.StatusOK, payload
	case errors.Is(err, storage.ErrUnknownArray):
		return errStatus(blockproto.StatusUnknownArray, err)
	case errors.Is(err, storage.ErrArrayExists):
		return errStatus(blockproto.StatusExists, err)
	case errors.Is(err, fs.ErrNotExist):
		return errStatus(blockproto.StatusNotFound, err)
	default:
		return errStatus(blockproto.StatusErr, err)
	}
}

// maxBlockElems bounds a block's elements so that its largest frame — a
// write request carrying a maximal array name — still fits MaxFrameBytes.
const maxBlockElems = (blockproto.MaxFrameBytes - 2 - math.MaxUint16 - 64) / 8

// checkGeometry refuses an array shape no request could ever serve: a
// non-positive dimension, or a block too large for one frame (whose
// read would otherwise allocate whatever the wire asked for).
func checkGeometry(arr *prog.Array) error {
	if arr.BlockRows <= 0 || arr.BlockCols <= 0 || arr.GridRows <= 0 || arr.GridCols <= 0 {
		return fmt.Errorf("blockd: array %q: non-positive geometry %dx%d blocks of %dx%d",
			arr.Name, arr.GridRows, arr.GridCols, arr.BlockRows, arr.BlockCols)
	}
	if arr.BlockRows > maxBlockElems/arr.BlockCols {
		return fmt.Errorf("blockd: array %q: %dx%d block exceeds the %d-byte frame limit",
			arr.Name, arr.BlockRows, arr.BlockCols, blockproto.MaxFrameBytes)
	}
	return nil
}

// handle answers one decoded request frame. Shard-root operations are the
// Manager's own methods — the same ones a local shard runs — so the server
// only decodes requests, maps errors to statuses, and encodes replies.
func (s *Server) handle(version, op byte, payload []byte) (byte, []byte) {
	if version != blockproto.ProtoVersion {
		return errStatus(blockproto.StatusBadVersion,
			fmt.Errorf("blockd: protocol version %d, server speaks %d", version, blockproto.ProtoVersion))
	}
	d := blockproto.NewDec(payload)
	switch op {
	case blockproto.OpPing:
		return blockproto.StatusOK, nil

	case blockproto.OpCreate:
		arr := &prog.Array{
			Name:      d.Str(),
			BlockRows: int(d.U32()), BlockCols: int(d.U32()),
			GridRows: int(d.U32()), GridCols: int(d.U32()),
			LogicalBlockBytes: d.I64(),
		}
		ensure := d.U8() != 0
		if err := d.Err(); err != nil {
			return errStatus(blockproto.StatusBadRequest, err)
		}
		if err := checkGeometry(arr); err != nil {
			return errStatus(blockproto.StatusBadRequest, err)
		}
		if ensure {
			return reply(nil, s.mgr.Ensure(arr))
		}
		return reply(nil, s.mgr.Create(arr))

	case blockproto.OpRead:
		name, r, c := d.Str(), d.I64(), d.I64()
		if err := d.Err(); err != nil {
			return errStatus(blockproto.StatusBadRequest, err)
		}
		blk, err := s.mgr.ReadBlock(name, r, c)
		if err != nil {
			return reply(nil, err)
		}
		e := new(blockproto.Enc).U32(uint32(blk.Rows)).U32(uint32(blk.Cols))
		e.Blob(blockproto.EncodeBlock(blk))
		return blockproto.StatusOK, e.Bytes()

	case blockproto.OpWrite:
		name, r, c := d.Str(), d.I64(), d.I64()
		rows, cols := int(d.U32()), int(d.U32())
		raw := d.Blob()
		if err := d.Err(); err != nil {
			return errStatus(blockproto.StatusBadRequest, err)
		}
		blk, err := blockproto.DecodeBlock(rows, cols, raw)
		if err != nil {
			return errStatus(blockproto.StatusBadRequest, err)
		}
		return reply(nil, s.mgr.WriteBlock(name, r, c, blk))

	case blockproto.OpDrop:
		name, deleteFile := d.Str(), d.U8() != 0
		if err := d.Err(); err != nil {
			return errStatus(blockproto.StatusBadRequest, err)
		}
		return reply(nil, s.mgr.Drop(name, deleteFile))

	case blockproto.OpStats:
		st := s.mgr.Stats()
		e := new(blockproto.Enc).I64(st.ReadReqs).I64(st.ReadBytes).I64(st.WriteReqs).I64(st.WriteBytes)
		return blockproto.StatusOK, e.Bytes()

	case blockproto.OpManifest:
		sub := d.U8()
		var put []byte
		if sub == blockproto.ManifestPut {
			put = d.Blob()
		}
		if err := d.Err(); err != nil {
			return errStatus(blockproto.StatusBadRequest, err)
		}
		switch sub {
		case blockproto.ManifestGet:
			data, err := s.mgr.ReadManifest()
			return reply(new(blockproto.Enc).Blob(data).Bytes(), err)
		case blockproto.ManifestPut:
			return reply(nil, s.mgr.WriteManifest(put))
		case blockproto.ManifestDel:
			return reply(nil, s.mgr.RemoveManifest())
		default:
			return errStatus(blockproto.StatusBadRequest, fmt.Errorf("blockd: unknown manifest sub-op %d", sub))
		}

	case blockproto.OpStat:
		name := d.Str()
		if err := d.Err(); err != nil {
			return errStatus(blockproto.StatusBadRequest, err)
		}
		exists, err := s.mgr.StoreExists(name)
		var flag byte
		if exists {
			flag = 1
		}
		return reply(new(blockproto.Enc).U8(flag).Bytes(), err)

	case blockproto.OpWipe:
		name := d.Str()
		if err := d.Err(); err != nil {
			return errStatus(blockproto.StatusBadRequest, err)
		}
		return reply(nil, s.mgr.WipeStore(name))

	case blockproto.OpLatency:
		read, write := d.I64(), d.I64()
		if err := d.Err(); err != nil {
			return errStatus(blockproto.StatusBadRequest, err)
		}
		s.mgr.SetLatency(time.Duration(read), time.Duration(write))
		return blockproto.StatusOK, nil

	default:
		return errStatus(blockproto.StatusBadRequest, fmt.Errorf("blockd: unknown opcode %d", op))
	}
}

// StdLogf adapts the standard library logger for Options.Logf.
func StdLogf(format string, args ...any) { log.Printf(format, args...) }
