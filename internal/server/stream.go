// stream.go is the chunked, backpressure-aware result delivery path:
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
//   - Backpressure. Blocks are acquired from the pool at most one chunk
//     ahead of the bytes the client has accepted: a slow reader stalls the
//     handler's write, which stalls the next pool acquisition. Pool
//     residency never grows with result size or client speed.
//   - Bounded retention. After a chunk is on the wire its frames are
//     retired (buffer.Pool.ReleaseBlock — write back if dirty, drop when
//     unpinned), so a result far larger than the pool's capacity streams
//     with flat resident memory. ?retain=keep keeps frames cached for
//     re-fetch; ?retain=drop additionally retires the query's output
//     stores once the stream completes.
//
// Wire format (format=binary): a sequence of blockproto frames
// (uint32 length | uint8 version | uint8 kind | payload) using the stream
// frame kinds below — an array header frame per output array, one frame
// per block in row-major order, and a final end frame (or an error frame
// if the query fails mid-stream). format=ndjson mirrors the same sequence
// as one JSON object per line for curl-ability. docs/streaming.md is the
// authoritative spec; keep the two in sync.
package server

import (
	"context"
	"encoding/json"
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
	// Str name, I64 blockRow, I64 blockCol, U32 rows, U32 cols,
	// Blob payload (EncodeBlock: row-major little-endian float64).
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
	// RetainKeep leaves streamed frames cached (they age out through the
	// normal replacement policy).
	RetainKeep = "keep"
	// RetainDrop retires frames like evict and additionally drops the
	// query's output stores after a complete, successful stream — the
	// "fetch once" mode; a later /results still returns the summary.
	RetainDrop = "drop"
)

// streamKey is the logical block key the completion signals are tracked
// under (the program's array name, not the namespaced physical one).
func streamKey(array string, r, c int64) string {
	return fmt.Sprintf("%s[%d,%d]", array, r, c)
}

// streamState tracks one query's output-block completion so streamed
// delivery can begin before the query finishes. The exec callback marks
// blocks ready; waiters block on a broadcast channel replaced on every
// state change. A query's terminal state (q.done) supersedes everything:
// after it, every block of a successful query is readable.
type streamState struct {
	mu      sync.Mutex
	ready   map[string]bool
	aliasOK bool
	changed chan struct{}
}

func newStreamState() *streamState {
	return &streamState{ready: make(map[string]bool), changed: make(chan struct{})}
}

// signalLocked wakes every waiter; callers hold st.mu.
func (st *streamState) signalLocked() {
	close(st.changed)
	st.changed = make(chan struct{})
}

// noteBlock marks one logical block's final write complete (the exec
// OnBlockWritten callback, possibly from a worker goroutine).
func (st *streamState) noteBlock(array string, r, c int64) {
	st.mu.Lock()
	st.ready[streamKey(array, r, c)] = true
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

// check snapshots (block ready?, alias published?) and returns the
// broadcast channel to wait on if not.
func (st *streamState) check(key string) (ready, aliasOK bool, wait <-chan struct{}) {
	st.mu.Lock()
	defer st.mu.Unlock()
	return key == "" || st.ready[key], st.aliasOK, st.changed
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

// streamOptions is one stream request's parsed knobs.
type streamOptions struct {
	format string // "binary" or "ndjson"
	chunk  int    // blocks acquired/flushed per round
	retain string // RetainEvict, RetainKeep, RetainDrop
}

// maxStreamChunk bounds ?chunk=: the handler holds at most this many
// block copies outside the pool at once.
const maxStreamChunk = 256

func parseStreamOptions(r *http.Request) (streamOptions, error) {
	q := r.URL.Query()
	opt := streamOptions{format: "binary", chunk: 1, retain: RetainEvict}
	switch f := q.Get("format"); f {
	case "", "binary":
	case "ndjson":
		opt.format = "ndjson"
	default:
		return opt, fmt.Errorf("unknown format %q (binary, ndjson)", f)
	}
	if c := q.Get("chunk"); c != "" {
		n, err := strconv.Atoi(c)
		if err != nil || n < 1 {
			return opt, fmt.Errorf("chunk must be a positive integer, got %q", c)
		}
		if n > maxStreamChunk {
			n = maxStreamChunk
		}
		opt.chunk = n
	}
	switch ret := q.Get("retain"); ret {
	case "", RetainEvict:
	case RetainKeep, RetainDrop:
		opt.retain = ret
	default:
		return opt, fmt.Errorf("unknown retain mode %q (evict, keep, drop)", ret)
	}
	return opt, nil
}

// streamSink renders the frame sequence to one of the two wire formats.
type streamSink interface {
	Array(name string, arr *prog.Array) error
	Block(name string, r, c int64, blk *blas.Matrix) error
	End(arrays, blocks int, bytes int64) error
	Error(msg string) error
}

// binarySink writes blockproto frames with the stream frame kinds.
type binarySink struct{ w io.Writer }

func (b binarySink) Array(name string, arr *prog.Array) error {
	var e blockproto.Enc
	e.Str(name).
		U32(uint32(arr.BlockRows)).U32(uint32(arr.BlockCols)).
		U32(uint32(arr.GridRows)).U32(uint32(arr.GridCols))
	return blockproto.WriteFrame(b.w, StreamFrameArray, e.Bytes())
}

func (b binarySink) Block(name string, r, c int64, blk *blas.Matrix) error {
	var e blockproto.Enc
	e.Str(name).I64(r).I64(c).
		U32(uint32(blk.Rows)).U32(uint32(blk.Cols)).
		Blob(blockproto.EncodeBlock(blk))
	return blockproto.WriteFrame(b.w, StreamFrameBlock, e.Bytes())
}

func (b binarySink) End(arrays, blocks int, bytes int64) error {
	var e blockproto.Enc
	e.U32(uint32(arrays)).U32(uint32(blocks)).I64(bytes)
	return blockproto.WriteFrame(b.w, StreamFrameEnd, e.Bytes())
}

func (b binarySink) Error(msg string) error {
	var e blockproto.Enc
	e.Str(msg)
	return blockproto.WriteFrame(b.w, StreamFrameError, e.Bytes())
}

// ndjsonSink writes the same sequence as one JSON object per line.
type ndjsonSink struct{ w io.Writer }

func (n ndjsonSink) write(v any) error {
	buf, err := json.Marshal(v)
	if err != nil {
		// Marshal failures (NaN/±Inf block data) happen before any bytes
		// of the line reach the client; tag them so the stream reports a
		// real error instead of a disconnect.
		return &encodeError{err: err}
	}
	buf = append(buf, '\n')
	_, err = n.w.Write(buf)
	return err
}

func (n ndjsonSink) Array(name string, arr *prog.Array) error {
	return n.write(map[string]any{
		"type": "array", "array": name,
		"blockRows": arr.BlockRows, "blockCols": arr.BlockCols,
		"gridRows": arr.GridRows, "gridCols": arr.GridCols,
		"rows": arr.BlockRows * arr.GridRows, "cols": arr.BlockCols * arr.GridCols,
	})
}

func (n ndjsonSink) Block(name string, r, c int64, blk *blas.Matrix) error {
	return n.write(map[string]any{
		"type": "block", "array": name, "r": r, "c": c,
		"rows": blk.Rows, "cols": blk.Cols, "data": blk.Data,
	})
}

func (n ndjsonSink) End(arrays, blocks int, bytes int64) error {
	return n.write(map[string]any{
		"type": "end", "arrays": arrays, "blocks": blocks, "bytes": bytes,
	})
}

func (n ndjsonSink) Error(msg string) error {
	return n.write(map[string]string{"type": "error", "error": msg})
}

// handleResultsStream is GET /results/stream?id=q1: 404 for an unknown
// query, 409 (JSON error) when the query already failed, otherwise a 200
// whose body is the streamed frame sequence. A still-queued or running
// query streams blocks as execution finishes them (early delivery); a
// failure after the stream started is reported in-band with an error
// frame. Optional knobs: ?format=binary|ndjson, ?chunk=N (blocks per
// acquire/flush round), ?retain=evict|keep|drop.
func (s *Server) handleResultsStream(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("id")
	s.mu.Lock()
	q, ok := s.queries[id]
	s.mu.Unlock()
	if !ok {
		writeErr(w, r, http.StatusNotFound, fmt.Errorf("server: unknown query %q", id))
		return
	}
	opt, err := parseStreamOptions(r)
	if err != nil {
		writeErr(w, r, http.StatusBadRequest, err)
		return
	}
	// A query that already failed gets a clean HTTP error instead of a
	// 200-then-error-frame stream.
	s.mu.Lock()
	failedEarly := q.status.State == StateFailed
	errText := q.status.Err
	s.mu.Unlock()
	if failedEarly {
		writeErr(w, r, http.StatusConflict, fmt.Errorf("server: query %s failed: %s", id, errText))
		return
	}
	if opt.format == "ndjson" {
		w.Header().Set("Content-Type", "application/x-ndjson")
	} else {
		w.Header().Set("Content-Type", "application/octet-stream")
	}
	w.Header().Set("X-Riotshare-Query", id)
	w.WriteHeader(http.StatusOK)
	var sink streamSink
	if opt.format == "ndjson" {
		sink = ndjsonSink{w: w}
	} else {
		sink = binarySink{w: w}
	}
	flush := func() {}
	if f, ok := w.(http.Flusher); ok {
		flush = f.Flush
	}
	s.streamQuery(r, q, opt, sink, flush)
}

// errStreamCanceled classifies a client disconnect mid-stream.
var errStreamCanceled = errors.New("stream canceled by client")

// encodeError marks a sink failure that happened while encoding a frame
// (json.Marshal of a NaN/±Inf block on the ndjson path, say) rather than
// writing it to the client. The distinction drives the stream's outcome:
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
// row-major order, waiting on per-block completion signals, acquiring at
// most chunk blocks from the pool per round and retiring them after the
// round is on the wire. It owns the stream telemetry: the metrics
// Stats.Streams reads, and the span tree.
func (s *Server) streamQuery(r *http.Request, q *query, opt streamOptions, sink streamSink, flush func()) {
	ctx := r.Context()
	root := telemetry.StartSpan("stream")
	root.Annotate("query", q.id)
	root.Annotate("format", opt.format)
	root.Annotate("retain", opt.retain)
	s.mStreamActive.Add(1)
	start := time.Now()
	arrays, blocks, bytes, err := s.streamBlocks(ctx, q, opt, sink, flush)
	s.mStreamActive.Add(-1)
	s.mStreamBlocks.Add(int64(blocks))
	s.mStreamBytes.Add(bytes)
	s.mStreamSeconds.ObserveDuration(time.Since(start))
	root.Annotate("arrays", strconv.Itoa(arrays))
	root.Annotate("blocks", strconv.Itoa(blocks))
	root.Annotate("bytes", strconv.FormatInt(bytes, 10))
	outcome := "done"
	switch {
	case errors.Is(err, errStreamCanceled):
		outcome = "canceled"
	case err != nil:
		outcome = "error"
		root.Annotate("error", err.Error())
		// Best effort: the 200 is already on the wire, so the failure
		// travels in-band. A dead connection just errors again silently.
		_ = sink.Error(err.Error())
		flush()
	}
	s.mStreamOutcome[outcome].Inc()
	if outcome == "done" && opt.retain == RetainDrop {
		// The stream can complete before runQuery does — blocks are
		// announced as execution writes them, ahead of the result-fetch
		// phase — and dropping the output stores then would yank them out
		// from under InvalidateArray/collectOutputs and fail a successful
		// query. Wait for the terminal state and drop only on success; a
		// failed query's run path drops its own outputs.
		<-q.done
		s.mu.Lock()
		succeeded := q.status.State == StateDone
		s.mu.Unlock()
		if succeeded {
			s.dropOutputs(q)
		}
	}
	root.Annotate("outcome", outcome)
	root.End()
	s.tracer.Add(q.id+":stream", root)
}

// streamBlocks is the delivery loop; it returns the totals delivered and
// the first error (errStreamCanceled for a client disconnect).
func (s *Server) streamBlocks(ctx context.Context, q *query, opt streamOptions, sink streamSink, flush func()) (arrays, blocks int, bytes int64, err error) {
	// Phase 1: wait until the query's output namespace exists (the alias
	// map is published right after prepareArrays) or the query reaches a
	// terminal state.
	for {
		_, aliasOK, wait := q.stream.check("")
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
		if st, _ := s.Status(q.id); st.State == StateFailed {
			return arrays, blocks, bytes, fmt.Errorf("server: query %s failed: %s", q.id, st.Err)
		}
		break
	}
	s.mu.Lock()
	alias := q.alias
	dropped := q.outputsDropped
	s.mu.Unlock()
	if dropped {
		return arrays, blocks, bytes, fmt.Errorf("server: query %s outputs were retired (RetainOutputs policy)", q.id)
	}

	// Output arrays in sorted order — the same order collectOutputs
	// summarizes them in.
	names := make([]string, 0, len(alias))
	for name := range alias {
		names = append(names, name)
	}
	sort.Strings(names)

	type pending struct {
		r, c int64
		blk  *blas.Matrix
	}
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
		chunk := make([]pending, 0, opt.chunk)
		// emit delivers the buffered chunk: write frames, flush, then
		// retire the frames from the pool (bounded retention).
		emit := func() error {
			for _, p := range chunk {
				if err := sink.Block(name, p.r, p.c, p.blk); err != nil {
					return classifySinkErr(err)
				}
				blocks++
				bytes += int64(len(p.blk.Data)) * 8
			}
			flush()
			if opt.retain != RetainKeep {
				for _, p := range chunk {
					if err := s.pool.ReleaseBlock(phys, p.r, p.c); err != nil {
						return err
					}
				}
			}
			chunk = chunk[:0]
			return nil
		}
		for br := int64(0); br < int64(arr.GridRows); br++ {
			for bc := int64(0); bc < int64(arr.GridCols); bc++ {
				if err := s.waitBlockReady(ctx, q, streamKey(name, br, bc)); err != nil {
					return arrays, blocks, bytes, err
				}
				blk, err := s.pool.Acquire(phys, br, bc)
				if err != nil {
					return arrays, blocks, bytes, err
				}
				// The block is borrowed from the frame and stays valid
				// (and unchanged) after the pin is gone, so the stream
				// pins nothing while a chunk waits for the client.
				s.pool.Unpin(phys, br, bc, 1)
				chunk = append(chunk, pending{r: br, c: bc, blk: blk})
				if len(chunk) >= opt.chunk {
					if err := emit(); err != nil {
						return arrays, blocks, bytes, err
					}
				}
			}
		}
		if err := emit(); err != nil {
			return arrays, blocks, bytes, err
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
func (s *Server) waitBlockReady(ctx context.Context, q *query, key string) error {
	for {
		ready, _, wait := q.stream.check(key)
		if ready {
			return nil
		}
		select {
		case <-q.done:
			if st, _ := s.Status(q.id); st.State == StateFailed {
				return fmt.Errorf("server: query %s failed: %s", q.id, st.Err)
			}
			return nil
		case <-ctx.Done():
			return errStreamCanceled
		case <-wait:
		}
	}
}

// StreamTo streams a query's outputs to w in the binary frame format —
// the in-process form of GET /results/stream, used by tests and
// embedders. It blocks until the stream completes or fails; use
// StreamToCtx to bound how long that can be.
func (s *Server) StreamTo(w io.Writer, id string, chunkBlocks int) error {
	return s.StreamToCtx(context.Background(), w, id, chunkBlocks) //riotvet:allow ctxflow — compatibility wrapper; cancelable callers use StreamToCtx
}

// StreamToCtx is StreamTo with a cancellation hook: canceling ctx aborts
// the stream mid-delivery (retiring what it held, like a client
// disconnect on the HTTP path), so a query that hangs before reaching a
// terminal state cannot block the embedder forever.
func (s *Server) StreamToCtx(ctx context.Context, w io.Writer, id string, chunkBlocks int) error {
	s.mu.Lock()
	q, ok := s.queries[id]
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("server: unknown query %q", id)
	}
	if chunkBlocks < 1 {
		chunkBlocks = 1
	}
	opt := streamOptions{format: "binary", chunk: chunkBlocks, retain: RetainEvict}
	_, _, _, err := s.streamBlocks(ctx, q, opt, binarySink{w: w}, func() {})
	return err
}

// streamStats snapshots the stream metric families for Stats.
func (s *Server) streamStats() StreamStats {
	return StreamStats{
		Active:    int(s.mStreamActive.Value()),
		Completed: s.mStreamOutcome["done"].Value(),
		Canceled:  s.mStreamOutcome["canceled"].Value(),
		Errors:    s.mStreamOutcome["error"].Value(),
		Blocks:    s.mStreamBlocks.Value(),
		Bytes:     s.mStreamBytes.Value(),
	}
}
