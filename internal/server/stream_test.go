package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"riotshare/internal/blas"
	"riotshare/internal/blockproto"
	"riotshare/internal/prog"
)

// streamedArray is one output array reassembled from a decoded stream.
type streamedArray struct {
	full   *blas.Matrix
	blocks int
	// sum adds each block's row-major element sum in frame-arrival order
	// (blocks row-major) — the two-level fold of OutputInfo.Sum — so
	// equality can be asserted bit-for-bit.
	sum float64
}

// decodeStream parses a complete binary stream and reassembles each
// array, failing the test on a malformed sequence or an in-band error
// frame.
func decodeStream(t *testing.T, data []byte) map[string]*streamedArray {
	t.Helper()
	rd := bytes.NewReader(data)
	type geom struct{ blockRows, blockCols, gridRows, gridCols int }
	geoms := map[string]geom{}
	arrs := map[string]*streamedArray{}
	totalBlocks := 0
	for {
		_, kind, payload, err := blockproto.ReadFrame(rd)
		if err != nil {
			t.Fatalf("read stream frame: %v", err)
		}
		d := blockproto.NewDec(payload)
		switch kind {
		case StreamFrameArray:
			name := d.Str()
			g := geom{
				blockRows: int(d.U32()), blockCols: int(d.U32()),
				gridRows: int(d.U32()), gridCols: int(d.U32()),
			}
			if err := d.Err(); err != nil {
				t.Fatalf("array frame: %v", err)
			}
			geoms[name] = g
			arrs[name] = &streamedArray{full: blas.NewMatrix(g.blockRows*g.gridRows, g.blockCols*g.gridCols)}
		case StreamFrameBlock:
			name := d.Str()
			br, bc, blk := d.I64(), d.I64(), d.Block()
			if err := d.Err(); err != nil {
				t.Fatalf("block frame: %v", err)
			}
			rows, cols := blk.Rows, blk.Cols
			a, g := arrs[name], geoms[name]
			if a == nil {
				t.Fatalf("block frame for unannounced array %q", name)
			}
			for i := 0; i < rows; i++ {
				for j := 0; j < cols; j++ {
					a.full.Data[(int(br)*g.blockRows+i)*a.full.Cols+int(bc)*g.blockCols+j] = blk.Data[i*cols+j]
				}
			}
			a.blocks++
			totalBlocks++
			blkSum := 0.0
			for _, v := range blk.Data {
				blkSum += v
			}
			a.sum += blkSum
		case StreamFrameEnd:
			arrays, blocks := int(d.U32()), int(d.U32())
			d.I64() // payload bytes
			if err := d.Err(); err != nil {
				t.Fatalf("end frame: %v", err)
			}
			if arrays != len(arrs) || blocks != totalBlocks {
				t.Fatalf("end frame totals (%d arrays, %d blocks) disagree with the stream (%d, %d)",
					arrays, blocks, len(arrs), totalBlocks)
			}
			if rd.Len() != 0 {
				t.Fatalf("%d trailing bytes after the end frame", rd.Len())
			}
			return arrs
		case StreamFrameError:
			t.Fatalf("in-band stream error: %s", d.Str())
		default:
			t.Fatalf("unexpected stream frame kind 0x%02x", kind)
		}
	}
}

// TestStreamedResultsMatchWholeFetch is the streaming path's property
// test: across sequential and pipelined engines and local/sharded/remote
// stores, a stream opened immediately after submit (early delivery — the
// query is still queued or running) reassembles to
// exactly the whole-fetch result, and its arrival-order sum is
// bit-identical to the /results summary sum.
func TestStreamedResultsMatchWholeFetch(t *testing.T) {
	cases := []struct {
		name    string
		workers int
		shards  int
		remote  bool
	}{
		{name: "seq-daf", workers: 1},
		{name: "par-daf-sharded", workers: 4, shards: 3},
		{name: "par-daf-remote", workers: 4, remote: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{
				Dir:      t.TempDir(),
				Seed:     testSeed,
				Workers:  tc.workers,
				Shards:   tc.shards,
				Programs: map[string]func() *prog.Program{"addmul-small": smallAddMul},
			}
			if tc.remote {
				// One local shard dir plus two in-process riotblockd
				// servers: the mixed layout from docs/remote-protocol.md.
				cfg.Dir = ""
				cfg.ShardDirs = []string{t.TempDir()}
				for i := 0; i < 2; i++ {
					cfg.ShardAddrs = append(cfg.ShardAddrs, startBlockd(t).Addr())
				}
			}
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			id, err := s.Submit(Request{Program: "addmul-small"})
			if err != nil {
				t.Fatal(err)
			}
			// Stream right away: delivery overlaps execution.
			var buf bytes.Buffer
			if err := s.StreamToCtx(context.Background(), &buf, id); err != nil {
				t.Fatalf("StreamToCtx: %v", err)
			}
			st, err := s.Wait(id)
			if err != nil {
				t.Fatal(err)
			}
			if st.State != StateDone {
				t.Fatalf("state = %s, err %q", st.State, st.Err)
			}
			arrs := decodeStream(t, buf.Bytes())
			if len(arrs) != len(st.Outputs) {
				t.Fatalf("streamed %d arrays, want %d", len(arrs), len(st.Outputs))
			}
			for _, o := range st.Outputs {
				a := arrs[o.Array]
				if a == nil {
					t.Fatalf("output %s missing from the stream", o.Array)
				}
				if a.sum != o.Sum {
					t.Errorf("%s: streamed arrival-order sum %v != summary sum %v (not bit-identical)", o.Array, a.sum, o.Sum)
				}
				want, err := s.Output(id, o.Array)
				if err != nil {
					t.Fatal(err)
				}
				if a.full.Rows != want.Rows || a.full.Cols != want.Cols {
					t.Fatalf("%s: streamed %dx%d, whole fetch %dx%d", o.Array, a.full.Rows, a.full.Cols, want.Rows, want.Cols)
				}
				for i := range want.Data {
					if a.full.Data[i] != want.Data[i] {
						t.Fatalf("%s[%d] = %v streamed, %v whole-fetch (not bit-identical)", o.Array, i, a.full.Data[i], want.Data[i])
					}
				}
			}
		})
	}
}

// gridAddSpec builds C = A + B over a grid×grid grid of block×block
// blocks — a single non-transient output whose size scales freely past
// any pool capacity.
func gridAddSpec(grid, block int) *ProgramSpec {
	return &ProgramSpec{
		Name:   fmt.Sprintf("addgrid-%dx%d", grid, block),
		Params: []string{"n1", "n2"},
		Bind:   map[string]int64{"n1": int64(grid), "n2": int64(grid)},
		Arrays: []ArraySpec{
			{Name: "A", BlockRows: block, BlockCols: block, GridRows: grid, GridCols: grid},
			{Name: "B", BlockRows: block, BlockCols: block, GridRows: grid, GridCols: grid},
			{Name: "C", BlockRows: block, BlockCols: block, GridRows: grid, GridCols: grid},
		},
		Stmts: []StmtSpec{{
			Name: "s1",
			Vars: []string{"i", "j"},
			Ranges: []RangeSpec{
				{Var: "i", Lo: ExprSpec{}, Hi: ExprSpec{Terms: map[string]int64{"n1": 1}}},
				{Var: "j", Lo: ExprSpec{}, Hi: ExprSpec{Terms: map[string]int64{"n2": 1}}},
			},
			Accesses: []AccessSpec{
				{Type: "read", Array: "A", Row: ExprSpec{Terms: map[string]int64{"i": 1}}, Col: ExprSpec{Terms: map[string]int64{"j": 1}}},
				{Type: "read", Array: "B", Row: ExprSpec{Terms: map[string]int64{"i": 1}}, Col: ExprSpec{Terms: map[string]int64{"j": 1}}},
				{Type: "write", Array: "C", Row: ExprSpec{Terms: map[string]int64{"i": 1}}, Col: ExprSpec{Terms: map[string]int64{"j": 1}}},
			},
			Kernel: "add",
			Note:   "C[i,j]=A[i,j]+B[i,j]",
		}},
	}
}

// poolWatchingWriter is a deliberately slow stream consumer that samples
// the pool's residency on every write — the backpressure probe.
type poolWatchingWriter struct {
	s       *Server
	n       int
	maxSeen int64
}

func (w *poolWatchingWriter) Write(p []byte) (int, error) {
	w.n++
	if w.n%8 == 0 {
		time.Sleep(2 * time.Millisecond) // slow consumer
	}
	if b := w.s.Stats().Pool.BytesCached; b > w.maxSeen {
		w.maxSeen = b
	}
	return len(p), nil
}

// TestStreamBackpressureBoundsPoolResidency proves the bounded-memory
// property: a result 4x the pool's byte capacity streamed to a slow
// consumer never pushes pool residency past capacity — neither the
// post-eviction high-water mark (PeakBytes) nor any mid-stream sample.
func TestStreamBackpressureBoundsPoolResidency(t *testing.T) {
	const grid, block = 8, 32
	blockBytes := int64(block * block * 8)
	poolCap := 16 * blockBytes // 128 KiB
	outBytes := int64(grid*grid) * blockBytes
	if outBytes < 4*poolCap {
		t.Fatalf("test setup: output %d bytes is under 4x the %d-byte pool", outBytes, poolCap)
	}
	s, err := New(Config{Dir: t.TempDir(), Seed: testSeed, PoolBytes: poolCap})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	id, err := s.Submit(Request{Spec: gridAddSpec(grid, block)})
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.Wait(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone {
		t.Fatalf("state = %s, err %q", st.State, st.Err)
	}
	w := &poolWatchingWriter{s: s}
	if err := s.StreamToCtx(context.Background(), w, id); err != nil {
		t.Fatalf("StreamToCtx: %v", err)
	}
	stats := s.Stats()
	if stats.Pool.PeakBytes > stats.Pool.BytesCap {
		t.Errorf("pool peak %d bytes exceeds capacity %d: streaming grew residency", stats.Pool.PeakBytes, stats.Pool.BytesCap)
	}
	if w.maxSeen > poolCap {
		t.Errorf("mid-stream residency sample %d exceeds the %d-byte capacity", w.maxSeen, poolCap)
	}
	if stats.Pool.PinnedFrames != 0 {
		t.Errorf("%d frames still pinned after the stream", stats.Pool.PinnedFrames)
	}
}

// TestStreamClientDisconnect proves a mid-stream disconnect cleans up:
// the handler notices the canceled request context, the canceled counter
// increments, the active gauge drains, no pool pins leak, and the same
// query still streams completely afterwards.
func TestStreamClientDisconnect(t *testing.T) {
	s, err := New(Config{
		Dir:           t.TempDir(),
		Seed:          testSeed,
		MaxConcurrent: 1,
		Programs:      map[string]func() *prog.Program{"addmul-small": smallAddMul},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Simulated device latency keeps the first query busy for hundreds of
	// milliseconds of wall time, so the second stays queued — its stream
	// blocks server-side with nothing on the wire, and the disconnect is
	// guaranteed to land mid-stream.
	s.store.SetLatency(3*time.Millisecond, 3*time.Millisecond)
	id1, err := s.Submit(Request{Program: "addmul-small"})
	if err != nil {
		t.Fatal(err)
	}
	id2, err := s.Submit(Request{Program: "addmul-small"})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/results/stream?id="+id2, nil)
	if err != nil {
		t.Fatal(err)
	}
	clientDone := make(chan struct{})
	go func() {
		defer close(clientDone)
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	<-clientDone

	deadline := time.Now().Add(5 * time.Second)
	for {
		st := s.Stats().Streams
		if st.Canceled == 1 && st.Active == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stream never recorded the disconnect: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Let both queries finish; the disconnected stream must not have
	// disturbed them, and the query stays streamable.
	s.store.SetLatency(0, 0)
	for _, id := range []string{id1, id2} {
		st, err := s.Wait(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != StateDone {
			t.Fatalf("query %s: state %s, err %q", id, st.State, st.Err)
		}
	}
	var buf bytes.Buffer
	if err := s.StreamToCtx(context.Background(), &buf, id2); err != nil {
		t.Fatalf("re-stream after disconnect: %v", err)
	}
	st2, err := s.Status(id2)
	if err != nil {
		t.Fatal(err)
	}
	arrs := decodeStream(t, buf.Bytes())
	for _, o := range st2.Outputs {
		a := arrs[o.Array]
		if a == nil || a.sum != o.Sum {
			t.Fatalf("re-stream of %s diverged from the summary", o.Array)
		}
	}
	if pins := s.Stats().Pool.PinnedFrames; pins != 0 {
		t.Errorf("%d pool frames still pinned after disconnect + re-stream", pins)
	}
}

// TestStreamRetainDropWaitsForQuery is the regression test for the
// early-delivery/RetainDrop race: a ?retain=drop stream that finishes
// before the query's result-fetch phase (blocks are announced as they
// are written, ahead of collectOutputs) must not drop the output stores
// out from under the still-running query. The query ends StateDone with
// its summary; only then are the outputs retired.
func TestStreamRetainDropWaitsForQuery(t *testing.T) {
	s, err := New(Config{Dir: t.TempDir(), Seed: testSeed})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// The window needs the stream to finish just as result-fetch begins,
	// so: a program whose output blocks are independent (each block's
	// final write is announced as execution passes it, keeping the stream
	// in lockstep with exec via pool hits instead of bunching every
	// announcement at the end), and asymmetric device latency — reads
	// slow, writes free — so the stream's per-block retirement costs
	// nothing while the query's result-fetch phase still has one slow
	// read per output block ahead of it when the stream's End frame (and,
	// before the fix, the drop) lands.
	s.store.SetLatency(10*time.Millisecond, 0)
	id, err := s.Submit(Request{Spec: gridAddSpec(4, 8)})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/results/stream?id=" + id + "&retain=drop")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	decodeStream(t, body) // fails on an in-band error frame

	st, err := s.Wait(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone {
		t.Fatalf("query after retain=drop stream: state %s, err %q (outputs dropped under the running query?)", st.State, st.Err)
	}
	if len(st.Outputs) == 0 {
		t.Fatal("summary missing after retain=drop stream")
	}
	// The drop did happen — after completion: block re-reads now fail
	// while the summary above survived.
	if _, err := s.Output(id, st.Outputs[0].Array); err == nil {
		t.Errorf("Output(%s) succeeded after retain=drop; outputs were never dropped", st.Outputs[0].Array)
	}
}

// TestSinkErrorClassification covers the stream-outcome split between
// transport failures (client gone → canceled) and encode failures (a
// block too large for one frame → a real stream error, reported in-band):
// an oversize block must not be silently counted as a client disconnect.
func TestSinkErrorClassification(t *testing.T) {
	if err := classifySinkErr(io.ErrClosedPipe); !errors.Is(err, errStreamCanceled) {
		t.Fatalf("transport failure classified as %v, want canceled", err)
	}
	blk := blas.NewMatrix(1, blockproto.MaxFrameBytes/8)
	var buf bytes.Buffer
	err := binarySink{w: &buf}.Block("E", 0, 0, blk)
	if err == nil {
		t.Fatal("a block over the frame limit should fail to encode")
	}
	var enc *encodeError
	if !errors.As(err, &enc) {
		t.Fatalf("oversize frame not tagged as encodeError: %v", err)
	}
	if c := classifySinkErr(err); errors.Is(c, errStreamCanceled) {
		t.Fatalf("encode failure misclassified as client disconnect: %v", c)
	}
	if buf.Len() != 0 {
		t.Errorf("%d bytes written before the encode failure", buf.Len())
	}
}

// TestStreamToCtxCancel proves the in-process streaming entry point honors
// its context: canceling mid-stream releases the embedder instead of
// blocking forever in waitBlockReady on a query that has not run yet.
func TestStreamToCtxCancel(t *testing.T) {
	s, err := New(Config{
		Dir:           t.TempDir(),
		Seed:          testSeed,
		MaxConcurrent: 1,
		Programs:      map[string]func() *prog.Program{"addmul-small": smallAddMul},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// The first query occupies the only execution slot for hundreds of
	// milliseconds; the second stays queued, so its stream has nothing to
	// deliver and parks in waitBlockReady.
	s.store.SetLatency(3*time.Millisecond, 3*time.Millisecond)
	id1, err := s.Submit(Request{Program: "addmul-small"})
	if err != nil {
		t.Fatal(err)
	}
	id2, err := s.Submit(Request{Program: "addmul-small"})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	streamDone := make(chan error, 1)
	go func() { streamDone <- s.StreamToCtx(ctx, io.Discard, id2) }()
	select {
	case err := <-streamDone:
		if !errors.Is(err, errStreamCanceled) {
			t.Fatalf("StreamToCtx after cancel: %v, want canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("StreamToCtx still blocked after its context was canceled")
	}
	// The abandoned stream left both queries unharmed.
	s.store.SetLatency(0, 0)
	for _, id := range []string{id1, id2} {
		st, err := s.Wait(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != StateDone {
			t.Fatalf("query %s: state %s, err %q", id, st.State, st.Err)
		}
	}
}

// TestResultsWaitHonorsClientDisconnect is the regression test for the
// /results?wait=1 bugfix: a client that disconnects mid-wait releases
// the handler promptly instead of holding it (and the result) until the
// query finishes; the query itself is unaffected.
func TestResultsWaitHonorsClientDisconnect(t *testing.T) {
	s, err := New(Config{
		Dir:      t.TempDir(),
		Seed:     testSeed,
		Programs: map[string]func() *prog.Program{"addmul-small": smallAddMul},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.store.SetLatency(3*time.Millisecond, 3*time.Millisecond)
	id, err := s.Submit(Request{Program: "addmul-small"})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest(http.MethodGet, "/results?id="+id+"&wait=1", nil).WithContext(ctx)
	rec := httptest.NewRecorder()
	handlerDone := make(chan struct{})
	go func() {
		s.Handler().ServeHTTP(rec, req)
		close(handlerDone)
	}()
	time.Sleep(30 * time.Millisecond)
	cancel()
	select {
	case <-handlerDone:
	case <-time.After(2 * time.Second):
		t.Fatal("handler still blocked in wait after the client disconnected")
	}
	if rec.Body.Len() != 0 {
		t.Errorf("handler wrote %q to a disconnected client", rec.Body.String())
	}
	s.store.SetLatency(0, 0)
	st, err := s.Wait(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone {
		t.Fatalf("query after abandoned wait: state %s, err %q", st.State, st.Err)
	}
}
