// stream.go is the block-by-block, backpressure-aware result delivery path:
// GET /results/stream?id= sends a finished — or still running — query's
// output blocks one at a time straight out of the buffer pool, instead of
// materializing the whole result in the handler the way /results does.
//
// Three properties make it the serving-path form of the paper's
// out-of-core discipline:
//
//   - Early delivery. The exec engines announce each output block's final
//     physical write (Engine.OnBlockWritten); the streamer waits on those
//     per-block signals, so the first finished blocks go on the wire while
//     later pipeline stages are still executing.
//   - Backpressure. Blocks are acquired from the pool at most one block
//     ahead of the bytes the client has accepted: a slow reader stalls the
//     handler's write, which stalls the next pool acquisition. Pool
//     residency never grows with result size or client speed.
//   - Bounded retention. After a block is on the wire its frame is
//     retired (buffer.Pool.ReleaseBlock — write back if dirty, drop when
//     unpinned), so a result far larger than the pool's capacity streams
//     with flat resident memory. ?retain=drop additionally retires the
//     query's output stores once the stream completes.
//
// Wire format: a sequence of blockproto frames
// (uint32 length | uint8 version | uint8 kind | payload) using the stream
// frame kinds below — an array header frame per output array, one frame
// per block in row-major order, and a final end frame (or an error frame
// if the query fails mid-stream). docs/streaming.md is the authoritative
// spec; keep the two in sync.
package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"riotshare/internal/blas"
	"riotshare/internal/blockproto"
	"riotshare/internal/prog"
	"riotshare/internal/telemetry"
)

// Stream frame kinds (the "kind" byte of each blockproto frame on the
// binary streaming path). They live above the request/response opcode and
// status ranges of the block-service protocol so a frame can never be
// mistaken for one.
const (
	// StreamFrameArray opens one output array:
	// Str name, U32 blockRows, U32 blockCols, U32 gridRows, U32 gridCols.
	StreamFrameArray byte = 0x20
	// StreamFrameBlock carries one block:
	// Str name, I64 blockRow, I64 blockCol, Block (blockproto's
	// U32 rows, U32 cols, Blob of row-major little-endian float64).
	StreamFrameBlock byte = 0x21
	// StreamFrameEnd closes a successful stream:
	// U32 arrays, U32 blocks, I64 payload bytes.
	StreamFrameEnd byte = 0x22
	// StreamFrameError reports a mid-stream failure (Str message) and
	// terminates the stream. It exists because the HTTP status is already
	// on the wire when a query fails after its first block was sent.
	StreamFrameError byte = 0x23
)

// Stream retention modes (?retain=).
const (
	// RetainEvict (the default) retires each streamed block's pool frame
	// after delivery; the output stores stay on disk for re-fetch.
	RetainEvict = "evict"
	// RetainDrop retires frames like evict and additionally drops the
	// query's output stores after a complete, successful stream — the
	// "fetch once" mode; a later /results still returns the summary.
	RetainDrop = "drop"
)

// streamState tracks one query's output-block completion so streamed
// delivery can begin before the query finishes. The exec callback marks
// blocks ready, by logical block (the program's array name, not the
// namespaced physical one); waiters block on a broadcast channel replaced
// on every state change. A query's terminal state (q.done) supersedes everything:
// after it, every block of a successful query is readable.
type streamState struct {
	mu      sync.Mutex
	ready   map[prog.BlockID]bool
	aliasOK bool
	changed chan struct{}
}

func newStreamState() *streamState {
	return &streamState{ready: make(map[prog.BlockID]bool), changed: make(chan struct{})}
}

// signalLocked wakes every waiter; callers hold st.mu.
func (st *streamState) signalLocked() {
	close(st.changed)
	st.changed = make(chan struct{})
}

// noteBlock marks one logical block's final write complete (from the exec
// OnBlockWritten callback, possibly on a worker goroutine).
func (st *streamState) noteBlock(id prog.BlockID) {
	st.mu.Lock()
	st.ready[id] = true
	st.signalLocked()
	st.mu.Unlock()
}

// noteAlias marks the query's output namespace (q.alias) as published.
func (st *streamState) noteAlias() {
	st.mu.Lock()
	st.aliasOK = true
	st.signalLocked()
	st.mu.Unlock()
}

// check snapshots (block id ready?, alias published?) and returns the
// broadcast channel to wait on if not.
func (st *streamState) check(id prog.BlockID) (ready, aliasOK bool, wait <-chan struct{}) {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.ready[id], st.aliasOK, st.changed
}

// StreamStats reports the streamed-result delivery path's lifetime
// counters (Stats.Streams).
type StreamStats struct {
	// Active is the number of streams currently on the wire; Completed,
	// Canceled, and Errors count finished ones by outcome (canceled =
	// client disconnect).
	Active    int   `json:"active"`
	Completed int64 `json:"completed"`
	Canceled  int64 `json:"canceled"`
	Errors    int64 `json:"errors"`
	// Blocks and Bytes total the delivered block frames and their payload
	// bytes across all streams.
	Blocks int64 `json:"blocks"`
	Bytes  int64 `json:"bytes"`
}

// streamParams are the query parameters GET /results/stream accepts.
var streamParams = map[string]bool{"id": true, "retain": true, "pretty": true}

// parseRetain validates a stream request's parameters and returns its
// retention mode. A parameter the endpoint does not have is refused by
// name rather than ignored.
func parseRetain(r *http.Request) (string, error) {
	q := r.URL.Query()
	for name := range q {
		if !streamParams[name] {
			return "", fmt.Errorf("unknown parameter %q (id, retain, pretty)", name)
		}
	}
	switch ret := q.Get("retain"); ret {
	case "", RetainEvict:
		return RetainEvict, nil
	case RetainDrop:
		return ret, nil
	default:
		return "", fmt.Errorf("unknown retain mode %q (evict, drop)", ret)
	}
}

// binarySink writes blockproto frames with the stream frame kinds.
type binarySink struct{ w io.Writer }

func (b binarySink) Array(name string, arr *prog.Array) error {
	var e blockproto.Enc
	e.Str(name).
		U32(uint32(arr.BlockRows)).U32(uint32(arr.BlockCols)).
		U32(uint32(arr.GridRows)).U32(uint32(arr.GridCols))
	return blockproto.WriteFrame(b.w, StreamFrameArray, &e)
}

func (b binarySink) Block(name string, r, c int64, blk *blas.Matrix) error {
	// A block the wire does not carry fails before any byte of it reaches
	// the client, so it is an encode error, not a disconnect.
	if len(blk.Data) > blockproto.MaxBlockElems {
		return &encodeError{err: fmt.Errorf("block %s has %d elements, over the %d a frame carries",
			prog.BlockID{Array: name, R: r, C: c}, len(blk.Data), blockproto.MaxBlockElems)}
	}
	var e blockproto.Enc
	e.Str(name).I64(r).I64(c).Block(blk)
	return blockproto.WriteFrame(b.w, StreamFrameBlock, &e)
}

func (b binarySink) End(arrays, blocks int, bytes int64) error {
	var e blockproto.Enc
	e.U32(uint32(arrays)).U32(uint32(blocks)).I64(bytes)
	return blockproto.WriteFrame(b.w, StreamFrameEnd, &e)
}

func (b binarySink) Error(msg string) error {
	var e blockproto.Enc
	e.Str(msg)
	return blockproto.WriteFrame(b.w, StreamFrameError, &e)
}

// handleResultsStream is GET /results/stream?id=q1: 404 for an id never
// issued, 410 for a retired one, 409 (JSON error) when the query already
// failed, otherwise a 200
// whose body is the streamed frame sequence. A still-queued or running
// query streams blocks as execution finishes them (early delivery); a
// failure after the stream started is reported in-band with an error
// frame. The one optional knob is ?retain=evict|drop; any other parameter
// besides id and pretty is a 400.
func (s *Server) handleResultsStream(w http.ResponseWriter, r *http.Request) {
	retain, err := parseRetain(r)
	if err != nil {
		writeErr(w, r, http.StatusBadRequest, err)
		return
	}
	id := r.URL.Query().Get("id")
	q, err := s.lookup(id)
	if err != nil {
		writeErr(w, r, lookupCode(err), err)
		return
	}
	// A query that already failed gets a clean HTTP error instead of a
	// 200-then-error-frame stream.
	if err := s.failure(q); err != nil {
		writeErr(w, r, http.StatusConflict, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Riotshare-Query", id)
	w.WriteHeader(http.StatusOK)
	flush := func() {}
	if f, ok := w.(http.Flusher); ok {
		flush = f.Flush
	}
	s.streamQuery(r, q, retain, binarySink{w: w}, flush)
}

// errStreamCanceled classifies a client disconnect mid-stream.
var errStreamCanceled = errors.New("stream canceled by client")

// encodeError marks a sink failure that happened while encoding a frame
// (a block too large for one frame, say) rather than writing it to the
// client. The distinction drives the stream's outcome:
// an encode failure is a genuine stream error — reported in-band with an
// error frame and counted under outcome="error" — while a write failure
// means the client is gone (outcome="canceled").
type encodeError struct{ err error }

func (e *encodeError) Error() string { return "encode stream frame: " + e.err.Error() }
func (e *encodeError) Unwrap() error { return e.err }

// classifySinkErr maps a sink failure to the stream's outcome error.
func classifySinkErr(err error) error {
	var enc *encodeError
	if errors.As(err, &enc) {
		return fmt.Errorf("server: %w", enc)
	}
	return errStreamCanceled
}

// streamQuery drives one stream: wait for the query's output namespace,
// then deliver every non-transient output array's blocks in sorted-array,
// row-major order, waiting on per-block completion signals, acquiring one
// block from the pool at a time and retiring it once it is on the wire. It owns the stream telemetry: the counters
// Stats.Streams reads, the stream-time histogram, and the span tree.
func (s *Server) streamQuery(r *http.Request, q *query, retain string, sink binarySink, flush func()) {
	ctx := r.Context()
	root := telemetry.StartSpan("stream")
	root.Annotate("query", q.id)
	root.Annotate("retain", retain)
	s.streamsActive.Add(1)
	start := time.Now()
	arrays, blocks, bytes, err := s.streamBlocks(ctx, q, sink, flush)
	s.streamsActive.Add(-1)
	s.streamedBlocks.Add(int64(blocks))
	s.streamedBytes.Add(bytes)
	s.mStreamSeconds.ObserveDuration(time.Since(start))
	root.Annotate("arrays", strconv.Itoa(arrays))
	root.Annotate("blocks", strconv.Itoa(blocks))
	root.Annotate("bytes", strconv.FormatInt(bytes, 10))
	outcome, ended := "done", &s.streamsDone
	switch {
	case errors.Is(err, errStreamCanceled):
		outcome, ended = "canceled", &s.streamsCanceled
	case err != nil:
		outcome, ended = "error", &s.streamsErrored
		root.Annotate("error", err.Error())
		// Best effort: the 200 is already on the wire, so the failure
		// travels in-band. A dead connection just errors again silently.
		_ = sink.Error(err.Error())
		flush()
	}
	ended.Add(1)
	if outcome == "done" && retain == RetainDrop {
		// The stream can complete before runQuery does — blocks are
		// announced as execution writes them, ahead of the result-fetch
		// phase — and dropping the output stores then would yank them out
		// from under InvalidateArray/collectOutputs and fail a successful
		// query. Wait for the terminal state and drop only on success; a
		// failed query's run path drops its own outputs.
		<-q.done
		if s.failure(q) == nil {
			s.dropOutputs(q)
		}
	}
	root.Annotate("outcome", outcome)
	root.End()
	s.mu.Lock()
	q.streamTrace = root
	s.mu.Unlock()
}

// streamBlocks is the delivery loop; it returns the totals delivered and
// the first error (errStreamCanceled for a client disconnect).
func (s *Server) streamBlocks(ctx context.Context, q *query, sink binarySink, flush func()) (arrays, blocks int, bytes int64, err error) {
	// Phase 1: wait until the query's output namespace exists (the alias
	// map is published right after prepareArrays) or the query reaches a
	// terminal state.
	for {
		_, aliasOK, wait := q.stream.check(prog.BlockID{})
		if aliasOK {
			break
		}
		select {
		case <-q.done:
		case <-ctx.Done():
			return arrays, blocks, bytes, errStreamCanceled
		case <-wait:
			continue
		}
		// Terminal without a namespace: planning/admission failed, or the
		// program writes nothing.
		if err := s.failure(q); err != nil {
			return arrays, blocks, bytes, err
		}
		break
	}
	s.mu.Lock()
	alias := q.alias
	dropped := q.outputsDropped
	s.mu.Unlock()
	if dropped {
		return arrays, blocks, bytes, fmt.Errorf("server: query %s outputs were retired", q.id)
	}

	// Output arrays in sorted order — the same order collectOutputs
	// summarizes them in. Blocks are addressed by physical name through a
	// session of the query's tenant, so streamed hits and misses land on it.
	sess := s.pool.TenantSession(q.tenant, nil)
	names := make([]string, 0, len(alias))
	for name := range alias {
		names = append(names, name)
	}
	sort.Strings(names)

	for _, name := range names {
		arr := q.prog.Arrays[name]
		if arr == nil || arr.Transient {
			continue
		}
		phys := alias[name]
		if err := sink.Array(name, arr); err != nil {
			return arrays, blocks, bytes, classifySinkErr(err)
		}
		arrays++
		for br := int64(0); br < int64(arr.GridRows); br++ {
			for bc := int64(0); bc < int64(arr.GridCols); bc++ {
				if err := s.waitBlockReady(ctx, q, prog.BlockID{Array: name, R: br, C: bc}); err != nil {
					return arrays, blocks, bytes, err
				}
				blk, err := sess.Acquire(phys, br, bc)
				if err != nil {
					return arrays, blocks, bytes, err
				}
				// The block is borrowed from the frame and stays valid
				// (and unchanged) after the pin is gone, so the stream
				// pins nothing while the client reads it.
				sess.Unpin(phys, br, bc, 1)
				if err := sink.Block(name, br, bc, blk); err != nil {
					return arrays, blocks, bytes, classifySinkErr(err)
				}
				blocks++
				bytes += int64(len(blk.Data)) * 8
				flush()
				// Bounded retention: retire the delivered frame.
				if err := s.pool.ReleaseBlock(phys, br, bc); err != nil {
					return arrays, blocks, bytes, err
				}
			}
		}
	}
	if err := sink.End(arrays, blocks, bytes); err != nil {
		return arrays, blocks, bytes, classifySinkErr(err)
	}
	flush()
	return arrays, blocks, bytes, nil
}

// waitBlockReady blocks until the logical block's final write completed,
// the query reached a terminal state (every block of a successful query
// is then readable; a failed query errors), or the client disconnected.
// A block the plan never writes to disk directly (or at all) resolves
// when the query finishes.
func (s *Server) waitBlockReady(ctx context.Context, q *query, id prog.BlockID) error {
	for {
		ready, _, wait := q.stream.check(id)
		if ready {
			return nil
		}
		select {
		case <-q.done:
			return s.failure(q)
		case <-ctx.Done():
			return errStreamCanceled
		case <-wait:
		}
	}
}

// StreamToCtx streams a query's outputs to w in the stream frame format —
// the in-process form of GET /results/stream, used by tests and embedders.
// It blocks until the stream completes or fails. Canceling ctx aborts the
// stream mid-delivery (retiring what it held, like a client disconnect on
// the HTTP path), so a query that hangs before reaching a terminal state
// cannot block the embedder forever.
func (s *Server) StreamToCtx(ctx context.Context, w io.Writer, id string) error {
	q, err := s.lookup(id)
	if err != nil {
		return err
	}
	_, _, _, err = s.streamBlocks(ctx, q, binarySink{w: w}, func() {})
	return err
}
