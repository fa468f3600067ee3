// remote_test.go exercises the network plane end to end: riotblockd
// servers (in-process) behind RemoteShard clients, standalone and striped
// under a ShardedManager — correctness against local directories, failure
// classification (timeout → retry → success; refused → unavailable), and
// the degraded-read + Repair story when a server dies mid-workload.
package blockd_test

import (
	"errors"
	"io"
	"io/fs"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"riotshare/internal/blas"
	"riotshare/internal/blockd"
	"riotshare/internal/blockproto"
	"riotshare/internal/prog"
	"riotshare/internal/storage"
)

func testArray(name string) *prog.Array {
	return &prog.Array{Name: name, BlockRows: 4, BlockCols: 3, GridRows: 5, GridCols: 4}
}

// startServer boots an in-process riotblockd over root on a fresh port.
func startServer(t *testing.T, root string) *blockd.Server {
	t.Helper()
	srv, err := blockd.New(root, blockd.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// fillBlocks writes a deterministic block set and returns it by coordinate.
func fillBlocks(t *testing.T, b storage.Backend, arr *prog.Array, seed int64) map[[2]int64]*blas.Matrix {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	blocks := map[[2]int64]*blas.Matrix{}
	for r := int64(0); r < int64(arr.GridRows); r++ {
		for c := int64(0); c < int64(arr.GridCols); c++ {
			blk := blas.NewMatrix(arr.BlockRows, arr.BlockCols)
			for i := range blk.Data {
				blk.Data[i] = rng.NormFloat64()
			}
			blocks[[2]int64{r, c}] = blk
			if err := b.WriteBlock(arr.Name, r, c, blk); err != nil {
				t.Fatalf("write %s[%d,%d]: %v", arr.Name, r, c, err)
			}
		}
	}
	return blocks
}

func assertBlocks(t *testing.T, b storage.Backend, arr *prog.Array, want map[[2]int64]*blas.Matrix) {
	t.Helper()
	for coord, w := range want {
		got, err := b.ReadBlock(arr.Name, coord[0], coord[1])
		if err != nil {
			t.Fatalf("read %s[%d,%d]: %v", arr.Name, coord[0], coord[1], err)
		}
		for i := range w.Data {
			if got.Data[i] != w.Data[i] {
				t.Fatalf("%s[%d,%d] element %d = %v, want %v", arr.Name, coord[0], coord[1], i, got.Data[i], w.Data[i])
			}
		}
	}
}

// A remote shard must round-trip blocks bit-identically and answer
// application errors as such — never as connection failures.
func TestRemoteShardRoundTrip(t *testing.T) {
	srv := startServer(t, t.TempDir())
	rs := storage.NewRemoteShard(srv.Addr(), storage.RemoteOptions{})
	defer rs.Close()

	arr := testArray("A")
	if err := rs.Create(arr); err != nil {
		t.Fatal(err)
	}
	want := fillBlocks(t, rs, arr, 7)
	assertBlocks(t, rs, arr, want)

	st := rs.Stats()
	if st.WriteReqs == 0 || st.ReadReqs == 0 {
		t.Errorf("server stats not counted over the wire: %+v", st)
	}

	// Duplicate create is an application error (detected in the client's
	// session-scoped registry), not a retryable connection failure.
	if err := rs.Create(arr); err == nil {
		t.Error("duplicate Create succeeded")
	} else if errors.Is(err, storage.ErrShardUnavailable) {
		t.Errorf("duplicate Create misclassified as unavailable: %v", err)
	}
	// Unknown arrays likewise.
	if _, err := rs.ReadBlock("nope", 0, 0); err == nil {
		t.Error("read of unknown array succeeded")
	} else if errors.Is(err, storage.ErrShardUnavailable) {
		t.Errorf("unknown-array read misclassified as unavailable: %v", err)
	}
	if rst := rs.RemoteStats(); rst.Retries != 0 {
		t.Errorf("application errors were retried %d times", rst.Retries)
	}

	if err := rs.Drop(arr.Name, true); err != nil {
		t.Fatal(err)
	}
}

// A riotblockd outlives client sessions, so Create's duplicate detection
// is session-scoped: a new client reuses a stale registration silently
// (like a fresh local Manager reuses an existing store file), reopens it
// when the geometry changed, and still refuses duplicates within its own
// session.
func TestRemoteCreateAcrossSessions(t *testing.T) {
	srv := startServer(t, t.TempDir())
	arr := testArray("A")

	first := storage.NewRemoteShard(srv.Addr(), storage.RemoteOptions{})
	if err := first.Create(arr); err != nil {
		t.Fatal(err)
	}
	want := fillBlocks(t, first, arr, 19)
	first.Close()

	// Session two: same name, same geometry — Create succeeds and the
	// prior session's blocks are still there (the store was reused).
	second := storage.NewRemoteShard(srv.Addr(), storage.RemoteOptions{})
	defer second.Close()
	if err := second.Create(arr); err != nil {
		t.Fatalf("Create after session restart: %v", err)
	}
	assertBlocks(t, second, arr, want)
	if err := second.Create(arr); err == nil {
		t.Error("duplicate Create within one session succeeded")
	}

	// Session three: same name, different geometry — the stale
	// registration is reopened under the new shape and I/O works.
	third := storage.NewRemoteShard(srv.Addr(), storage.RemoteOptions{})
	defer third.Close()
	wide := &prog.Array{Name: "A", BlockRows: 2, BlockCols: 6, GridRows: 3, GridCols: 2}
	if err := third.Create(wide); err != nil {
		t.Fatalf("Create with new geometry after session restart: %v", err)
	}
	blk := blas.NewMatrix(wide.BlockRows, wide.BlockCols)
	for i := range blk.Data {
		blk.Data[i] = float64(i) * 0.5
	}
	if err := third.WriteBlock("A", 1, 1, blk); err != nil {
		t.Fatal(err)
	}
	got, err := third.ReadBlock("A", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got.Rows != wide.BlockRows || got.Cols != wide.BlockCols {
		t.Fatalf("reopened store served %dx%d blocks, want %dx%d", got.Rows, got.Cols, wide.BlockRows, wide.BlockCols)
	}
	for i := range blk.Data {
		if got.Data[i] != blk.Data[i] {
			t.Fatalf("element %d = %v, want %v", i, got.Data[i], blk.Data[i])
		}
	}
}

// Concurrent reads pipeline across the pool without mixing up responses.
func TestRemoteShardConcurrent(t *testing.T) {
	srv := startServer(t, t.TempDir())
	rs := storage.NewRemoteShard(srv.Addr(), storage.RemoteOptions{PoolSize: 2})
	defer rs.Close()

	arr := testArray("A")
	if err := rs.Create(arr); err != nil {
		t.Fatal(err)
	}
	want := fillBlocks(t, rs, arr, 11)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for coord, wantBlk := range want {
				got, err := rs.ReadBlock(arr.Name, coord[0], coord[1])
				if err != nil {
					errs <- err
					return
				}
				for i := range wantBlk.Data {
					if got.Data[i] != wantBlk.Data[i] {
						errs <- errors.New("pipelined read returned wrong block contents")
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// A striped store over riotblockd servers must hold bit-identical data to
// the same store over local directories.
func TestRemoteShardedMatchesLocalDirs(t *testing.T) {
	const shards = 4
	addrs := make([]string, shards)
	for i := range addrs {
		addrs[i] = startServer(t, t.TempDir()).Addr()
	}
	remote, err := storage.OpenSharded(addrs, storage.ShardedOptions{Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	local, err := storage.OpenSharded(storage.ShardDirs(t.TempDir(), shards), storage.ShardedOptions{Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()

	arr := testArray("A")
	for _, b := range []storage.Backend{remote, local} {
		if err := b.Create(arr); err != nil {
			t.Fatal(err)
		}
	}
	wantRemote := fillBlocks(t, remote, arr, 23)
	wantLocal := fillBlocks(t, local, arr, 23)
	for coord, w := range wantLocal {
		r := wantRemote[coord]
		for i := range w.Data {
			if r.Data[i] != w.Data[i] {
				t.Fatalf("deterministic fill diverged at %v element %d", coord, i)
			}
		}
	}
	assertBlocks(t, remote, arr, wantLocal)
}

// Mixed specs: local directories and remote servers in one store.
func TestMixedLocalRemoteShards(t *testing.T) {
	specs := []string{
		t.TempDir(),
		startServer(t, t.TempDir()).Addr(),
		t.TempDir(),
		startServer(t, t.TempDir()).Addr(),
	}
	sm, err := storage.OpenSharded(specs, storage.ShardedOptions{Replicas: 2, Persist: true})
	if err != nil {
		t.Fatal(err)
	}
	defer sm.Close()
	arr := testArray("A")
	if err := sm.Create(arr); err != nil {
		t.Fatal(err)
	}
	want := fillBlocks(t, sm, arr, 31)
	assertBlocks(t, sm, arr, want)
}

// stallProxy stalls its first N accepted connections (reads requests,
// never answers — the timeout case), then transparently forwards later
// connections to target. It counts every connection it accepts. With hold
// set, a stalled connection is not even read, so a client's writes back up
// once the socket buffers fill.
type stallProxy struct {
	ln       net.Listener
	target   string
	mu       sync.Mutex
	stall    int
	accepted int
	hold     bool
	held     []net.Conn
}

// accepts returns how many connections the proxy has accepted.
func (p *stallProxy) accepts() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.accepted
}

func newStallProxy(t *testing.T, target string, stallConns int) *stallProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &stallProxy{ln: ln, target: target, stall: stallConns}
	t.Cleanup(func() {
		ln.Close()
		p.mu.Lock()
		defer p.mu.Unlock()
		for _, c := range p.held {
			c.Close()
		}
	})
	go p.run()
	return p
}

// newHoldProxy is a stallProxy whose every connection is held unread.
func newHoldProxy(t *testing.T) *stallProxy {
	t.Helper()
	p := newStallProxy(t, "", 1<<30)
	p.mu.Lock()
	p.hold = true
	p.mu.Unlock()
	return p
}

func (p *stallProxy) run() {
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return
		}
		p.mu.Lock()
		p.accepted++
		stall := p.stall > 0
		if stall {
			p.stall--
		}
		if stall && p.hold {
			p.held = append(p.held, conn)
			p.mu.Unlock()
			continue
		}
		p.mu.Unlock()
		if stall {
			// Swallow requests forever; the client must time out, kill
			// this connection, and retry on a fresh one.
			go func() { io.Copy(io.Discard, conn) }()
			continue
		}
		up, err := net.Dial("tcp", p.target)
		if err != nil {
			conn.Close()
			continue
		}
		go func() { io.Copy(up, conn); up.Close() }()
		go func() { io.Copy(conn, up); conn.Close() }()
	}
}

// A stalled request must time out, burn a retry, and then succeed on a
// fresh connection — the transient-failure classification.
func TestRemoteTimeoutRetriesThenSucceeds(t *testing.T) {
	srv := startServer(t, t.TempDir())
	proxy := newStallProxy(t, srv.Addr(), 1)
	rs := storage.NewRemoteShard(proxy.ln.Addr().String(), storage.RemoteOptions{
		PoolSize:     1,
		OpTimeout:    150 * time.Millisecond,
		Retries:      2,
		RetryBackoff: 5 * time.Millisecond,
	})
	defer rs.Close()

	arr := testArray("A")
	if err := rs.Create(arr); err != nil {
		t.Fatalf("create through stalling proxy: %v", err)
	}
	st := rs.RemoteStats()
	if st.Timeouts == 0 {
		t.Error("no timeout counted for the stalled connection")
	}
	if st.Retries == 0 {
		t.Error("no retry counted after the timeout")
	}
	if st.Dials < 2 {
		t.Errorf("retry did not use a fresh connection (dials=%d)", st.Dials)
	}
}

// Connection refused is a persistent failure: immediate
// ErrShardUnavailable, no retry burn.
func TestRemoteConnectionRefusedIsUnavailable(t *testing.T) {
	// Grab a port nothing listens on.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	rs := storage.NewRemoteShard(addr, storage.RemoteOptions{Retries: 2, RetryBackoff: time.Millisecond})
	defer rs.Close()
	err = rs.Ping()
	if !errors.Is(err, storage.ErrShardUnavailable) {
		t.Fatalf("refused connection classified as %v, want ErrShardUnavailable", err)
	}
	if st := rs.RemoteStats(); st.Retries != 0 {
		t.Errorf("refused connection burned %d retries; persistent failures must not retry", st.Retries)
	}
}

// Exhausted transient retries surface as ErrShardUnavailable too.
func TestRemoteExhaustedRetriesAreUnavailable(t *testing.T) {
	srv := startServer(t, t.TempDir())
	proxy := newStallProxy(t, srv.Addr(), 100) // stall every connection
	rs := storage.NewRemoteShard(proxy.ln.Addr().String(), storage.RemoteOptions{
		PoolSize:     1,
		OpTimeout:    50 * time.Millisecond,
		Retries:      1,
		RetryBackoff: time.Millisecond,
	})
	defer rs.Close()
	if err := rs.Ping(); !errors.Is(err, storage.ErrShardUnavailable) {
		t.Fatalf("exhausted retries classified as %v, want ErrShardUnavailable", err)
	}
}

// answerOnce serves one connection that answers its first request OK and
// then reads every later one without answering; it returns its address.
func answerOnce(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if _, _, _, err := blockproto.ReadFrame(conn); err != nil {
			return
		}
		if blockproto.WriteFrame(conn, blockproto.StatusOK, nil) != nil {
			return
		}
		io.Copy(io.Discard, conn)
	}()
	return ln.Addr().String()
}

// A connection's write-lock wait counts only contention, and its pending
// depth only requests written and not yet answered. Requests issued one
// after another never wait and queue one deep. Concurrent requests to a
// server that never answers all queue on the one connection. Concurrent
// block writes to a server that stops reading wait for the write lock: the
// first request's frame is stuck in the full socket until its write
// deadline, holding the lock, while the others wait for it.
func TestRemoteWriteLockWaitAndPendingDepth(t *testing.T) {
	srv := startServer(t, t.TempDir())
	opt := storage.RemoteOptions{PoolSize: 1, OpTimeout: 500 * time.Millisecond, Retries: -1}
	rs := storage.NewRemoteShard(srv.Addr(), opt)
	defer rs.Close()
	for i := 0; i < 5; i++ {
		if err := rs.Ping(); err != nil {
			t.Fatal(err)
		}
	}
	if st := rs.RemoteStats(); st.WriteLockWait != 0 || st.PendingMax != 1 {
		t.Errorf("sequential pings: write-lock wait %v, pending max %d; want 0 and 1", st.WriteLockWait, st.PendingMax)
	}

	// concurrently runs n calls of op released together and waits for them.
	concurrently := func(n int, op func()) {
		var wg sync.WaitGroup
		start := make(chan struct{})
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				op()
			}()
		}
		close(start)
		wg.Wait()
	}

	const callers = 4
	quiet := storage.NewRemoteShard(answerOnce(t), opt)
	defer quiet.Close()
	if err := quiet.Ping(); err != nil { // dials the one connection
		t.Fatal(err)
	}
	concurrently(callers, func() { _ = quiet.Ping() }) // each times out
	if st := quiet.RemoteStats(); st.PendingMax != callers {
		t.Errorf("%d concurrent unanswered pings: pending max %d, want %d", callers, st.PendingMax, callers)
	}

	held := newHoldProxy(t)
	opt.OpTimeout = 200 * time.Millisecond
	stuck := storage.NewRemoteShard(held.ln.Addr().String(), opt)
	defer stuck.Close()
	// 6 MiB per frame, past what the loopback socket buffers hold unread.
	blk := blas.NewMatrix(768, 1024)
	concurrently(3, func() { _ = stuck.WriteBlock("A", 0, 0, blk) }) // each fails
	if st := stuck.RemoteStats(); st.WriteLockWait <= 0 {
		t.Errorf("concurrent writes to a server that stopped reading: write-lock wait %v, want > 0", st.WriteLockWait)
	}
}

// Killing one server mid-workload must degrade its shard automatically:
// reads fall back to replicas (counted), writes keep succeeding, and the
// data stays bit-identical.
func TestRemoteServerKillDegradesAndFallsBack(t *testing.T) {
	const shards = 4
	servers := make([]*blockd.Server, shards)
	addrs := make([]string, shards)
	roots := make([]string, shards)
	for i := range servers {
		roots[i] = t.TempDir()
		servers[i] = startServer(t, roots[i])
		addrs[i] = servers[i].Addr()
	}
	sm, err := storage.OpenSharded(addrs, storage.ShardedOptions{
		Replicas: 2,
		Remote:   storage.RemoteOptions{OpTimeout: time.Second, Retries: 1, RetryBackoff: 5 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sm.Close()

	arr := testArray("A")
	if err := sm.Create(arr); err != nil {
		t.Fatal(err)
	}
	want := fillBlocks(t, sm, arr, 47)

	servers[1].Close() // kill one riotblockd

	// Every block must still read back bit-identically; blocks whose
	// primary was shard 1 come from replicas.
	assertBlocks(t, sm, arr, want)
	if got := sm.Degraded(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("Degraded() = %v after killing server 1, want [1]", got)
	}
	if sm.DegradedReads() == 0 {
		t.Error("no degraded reads counted while a server is down")
	}
	// Writes must keep succeeding (skipping the dead shard).
	blk := blas.NewMatrix(arr.BlockRows, arr.BlockCols)
	for i := range blk.Data {
		blk.Data[i] = float64(i)
	}
	if err := sm.WriteBlock(arr.Name, 0, 0, blk); err != nil {
		t.Fatalf("write with a dead server: %v", err)
	}
}

// A shard whose server comes back heals with Repair: re-mirrored from
// replicas, degraded flag cleared, counter reset.
func TestRemoteRepairAfterServerRestart(t *testing.T) {
	const shards = 3
	servers := make([]*blockd.Server, shards)
	addrs := make([]string, shards)
	roots := make([]string, shards)
	for i := range servers {
		roots[i] = t.TempDir()
		servers[i] = startServer(t, roots[i])
		addrs[i] = servers[i].Addr()
	}
	sm, err := storage.OpenSharded(addrs, storage.ShardedOptions{
		Replicas: 2, Persist: true,
		Remote: storage.RemoteOptions{OpTimeout: time.Second, Retries: 1, RetryBackoff: 5 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sm.Close()

	arr := testArray("A")
	if err := sm.Create(arr); err != nil {
		t.Fatal(err)
	}
	want := fillBlocks(t, sm, arr, 53)

	servers[1].Close()
	assertBlocks(t, sm, arr, want) // degrades shard 1 on first contact
	if got := sm.Degraded(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("Degraded() = %v, want [1]", got)
	}

	// Repair against a still-dead server must fail cleanly and leave the
	// shard degraded.
	if err := sm.Repair(1); err == nil {
		t.Fatal("Repair succeeded against a dead server")
	}
	if got := sm.Degraded(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("failed Repair changed degraded set to %v", got)
	}

	// Restart the server on the same address and root, then repair.
	restarted, err := blockd.New(roots[1], blockd.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := restarted.ListenAndServe(addrs[1]); err != nil {
		t.Fatalf("rebind %s: %v", addrs[1], err)
	}
	defer restarted.Close()
	if err := sm.Repair(1); err != nil {
		t.Fatalf("Repair after restart: %v", err)
	}
	if got := sm.Degraded(); len(got) != 0 {
		t.Fatalf("Degraded() = %v after repair, want none", got)
	}
	if sm.DegradedReads() != 0 {
		t.Error("DegradedReads not reset by Repair")
	}
	assertBlocks(t, sm, arr, want)
}

// A persistent store over remote shards must reopen with its catalog, like
// local directories do; manifests travel over the manifest sub-protocol.
func TestRemotePersistReopen(t *testing.T) {
	const shards = 3
	addrs := make([]string, shards)
	for i := range addrs {
		addrs[i] = startServer(t, t.TempDir()).Addr()
	}
	opt := storage.ShardedOptions{Persist: true, Replicas: 2}
	sm, err := storage.OpenSharded(addrs, opt)
	if err != nil {
		t.Fatal(err)
	}
	arr := testArray("A")
	if err := sm.Create(arr); err != nil {
		sm.Close()
		t.Fatal(err)
	}
	want := fillBlocks(t, sm, arr, 61)
	if err := sm.RecordShared(arr, "fp-61"); err != nil {
		sm.Close()
		t.Fatal(err)
	}
	if err := sm.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := storage.OpenSharded(addrs, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if !re.Reopened() {
		t.Fatal("reopen over remote shards did not find the manifests")
	}
	e, ok := re.SharedEntry(arr.Name)
	if !ok {
		t.Fatal("catalog lost across a remote reopen")
	}
	if e.Fingerprint != "fp-61" {
		t.Fatalf("fingerprint = %q, want fp-61", e.Fingerprint)
	}
	assertBlocks(t, re, arr, want)
}

// IsRemoteSpec must cleanly split directory paths from addresses.
func TestIsRemoteSpec(t *testing.T) {
	remote := []string{"localhost:8441", "127.0.0.1:9000", "h0:1"}
	local := []string{"/var/lib/riotshare", "./shard-0", "data", "host:port", "a/b:1", `C:\data`, ":8441"}
	for _, s := range remote {
		if !storage.IsRemoteSpec(s) {
			t.Errorf("IsRemoteSpec(%q) = false, want true", s)
		}
	}
	for _, s := range local {
		if storage.IsRemoteSpec(s) {
			t.Errorf("IsRemoteSpec(%q) = true, want false", s)
		}
	}
}

// The protocol rejects a version the server does not speak with a clean
// error rather than desyncing the stream.
func TestRemoteBadVersionError(t *testing.T) {
	srv := startServer(t, t.TempDir())
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Hand-rolled frame with a bogus version byte: len=2, version=99, op=1.
	if _, err := conn.Write([]byte{0, 0, 0, 2, 99, 1}); err != nil {
		t.Fatal(err)
	}
	resp := make([]byte, 6)
	if _, err := io.ReadFull(conn, resp); err != nil {
		t.Fatal(err)
	}
	if resp[5] == 0 {
		t.Fatal("server answered StatusOK to an unknown protocol version")
	}
	rest := make([]byte, int(uint32(resp[0])<<24|uint32(resp[1])<<16|uint32(resp[2])<<8|uint32(resp[3]))-2)
	if _, err := io.ReadFull(conn, rest); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(rest), "version") {
		t.Errorf("bad-version error %q does not mention the version", rest)
	}
}

// Array names arrive over the wire and become file names under the server
// root: a name that would resolve outside it is refused as an application
// error (never retried, never degrading) by every op that builds a path,
// and touches nothing.
func TestRemoteArrayNameCannotEscapeRoot(t *testing.T) {
	parent := t.TempDir()
	sentinel := filepath.Join(parent, "x.daf")
	if err := os.WriteFile(sentinel, []byte("keep"), 0o644); err != nil {
		t.Fatal(err)
	}
	srv := startServer(t, filepath.Join(parent, "root"))
	rs := storage.NewRemoteShard(srv.Addr(), storage.RemoteOptions{})
	defer rs.Close()

	appError := func(op string, err error) {
		t.Helper()
		var se *storage.ServerError
		if !errors.As(err, &se) {
			t.Errorf("%s = %v, want a server-side application error", op, err)
		}
	}
	appError(`WipeStore("../x")`, rs.WipeStore("../x"))
	_, err := rs.StoreExists("../x")
	appError(`StoreExists("../x")`, err)
	appError(`Create("../x")`, rs.Create(testArray("../x")))
	appError(`Create("../y")`, rs.Create(testArray("../y")))

	if got, err := os.ReadFile(sentinel); err != nil || string(got) != "keep" {
		t.Errorf("sentinel outside the root = %q, %v; want it intact", got, err)
	}
	if _, err := os.Stat(filepath.Join(parent, "y.daf")); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("Create(\"../y\") left a file outside the root (stat err %v)", err)
	}
	if rst := rs.RemoteStats(); rst.Retries != 0 {
		t.Errorf("application errors were retried %d times", rst.Retries)
	}
}

// serverStatus extracts the wire status of a server-side application error.
func serverStatus(t *testing.T, op string, err error) byte {
	t.Helper()
	var se *storage.ServerError
	if !errors.As(err, &se) {
		t.Fatalf("%s = %v, want a server-side application error", op, err)
	}
	return se.Status
}

// Array names are legal with spaces and appear in Manager error texts and
// store paths, so the server must classify Manager errors by identity, not
// by message. Here the store file of an array named "already created"
// cannot be opened (a directory is in the way): an ensure-create must fail,
// not be taken for a harmless duplicate because the path is in the message.
func TestRemoteEnsureNamedAlreadyCreated(t *testing.T) {
	root := t.TempDir()
	if err := os.Mkdir(filepath.Join(root, "already created.daf"), 0o755); err != nil {
		t.Fatal(err)
	}
	srv := startServer(t, root)
	rs := storage.NewRemoteShard(srv.Addr(), storage.RemoteOptions{})
	defer rs.Close()

	err := rs.Ensure(testArray("already created"))
	if err == nil {
		t.Fatal("Ensure answered OK although no store could be opened")
	}
	if st := serverStatus(t, "Ensure", err); st != blockproto.StatusErr {
		t.Errorf("Ensure status = %d, want StatusErr (%d)", st, blockproto.StatusErr)
	}
}

// Likewise a wrong-shape write to a registered array named "unknown array"
// is a generic failure, not StatusUnknownArray.
func TestRemoteWriteNamedUnknownArray(t *testing.T) {
	srv := startServer(t, t.TempDir())
	rs := storage.NewRemoteShard(srv.Addr(), storage.RemoteOptions{})
	defer rs.Close()

	arr := testArray("unknown array")
	if err := rs.Create(arr); err != nil {
		t.Fatal(err)
	}
	err := rs.WriteBlock(arr.Name, 0, 0, blas.NewMatrix(arr.BlockRows+1, arr.BlockCols))
	if st := serverStatus(t, "wrong-shape WriteBlock", err); st != blockproto.StatusErr {
		t.Errorf("wrong-shape write status = %d, want StatusErr (%d)", st, blockproto.StatusErr)
	}
	// An array that really is unknown still gets its own status.
	_, err = rs.ReadBlock("nope", 0, 0)
	if st := serverStatus(t, "ReadBlock(nope)", err); st != blockproto.StatusUnknownArray {
		t.Errorf("unknown-array read status = %d, want StatusUnknownArray (%d)", st, blockproto.StatusUnknownArray)
	}
}

// Concurrent first requests on a fresh client dial at most PoolSize
// connections: a dial holds its pool slot while it is in flight, so the
// callers that find every slot taken wait for it or pipeline onto a live
// connection instead of dialing their own.
func TestRemoteShardDialsAtMostPoolSize(t *testing.T) {
	srv := startServer(t, t.TempDir())
	arr := testArray("A")
	setup := storage.NewRemoteShard(srv.Addr(), storage.RemoteOptions{})
	if err := setup.Create(arr); err != nil {
		t.Fatal(err)
	}
	fillBlocks(t, setup, arr, 5)
	setup.Close()

	const rounds, callers = 20, 8
	for _, poolSize := range []int{1, 2} {
		over := 0
		for round := 0; round < rounds; round++ {
			rs := storage.NewRemoteShard(srv.Addr(), storage.RemoteOptions{PoolSize: poolSize})
			start := make(chan struct{})
			errs := make(chan error, callers)
			var wg sync.WaitGroup
			for i := 0; i < callers; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					<-start
					_, err := rs.ReadBlock(arr.Name, int64(i%arr.GridRows), 0)
					errs <- err
				}(i)
			}
			close(start)
			wg.Wait()
			close(errs)
			for err := range errs {
				if err != nil {
					t.Fatal(err)
				}
			}
			if rs.RemoteStats().Dials > int64(poolSize) {
				over++
			}
			rs.Close()
		}
		if over > 0 {
			t.Errorf("PoolSize %d: %d of %d rounds dialed more than %d connections", poolSize, over, rounds, poolSize)
		}
	}
}

// A block no one wrote reads as zeros, on a local Manager and through a
// riotblockd alike, whether it lies in a hole before a written block or
// past the end of its DAF: in a 2×1 grid the column-major file holds block
// row 0 first, so leaving row 1 unwritten leaves the file ending before
// it. A file that ends partway through a block is still a read error.
func TestUnwrittenBlockReadsZeros(t *testing.T) {
	arr := &prog.Array{Name: "C", BlockRows: 2, BlockCols: 3, GridRows: 2, GridCols: 1}
	ones := blas.NewMatrix(arr.BlockRows, arr.BlockCols)
	for i := range ones.Data {
		ones.Data[i] = 1
	}
	stores := []struct {
		name string
		open func(t *testing.T, dir string) storage.Backend
	}{
		{"manager", func(t *testing.T, dir string) storage.Backend {
			m, err := storage.NewManager(dir, storage.FormatDAF)
			if err != nil {
				t.Fatal(err)
			}
			return m
		}},
		{"riotblockd", func(t *testing.T, dir string) storage.Backend {
			return storage.NewRemoteShard(startServer(t, dir).Addr(), storage.RemoteOptions{})
		}},
	}
	for _, st := range stores {
		for _, tc := range []struct {
			name               string
			written, unwritten int64
		}{
			{"first-row-unwritten", 1, 0},
			{"last-row-unwritten", 0, 1},
		} {
			t.Run(st.name+"/"+tc.name, func(t *testing.T) {
				dir := t.TempDir()
				b := st.open(t, dir)
				defer b.Close()
				if err := b.Create(arr); err != nil {
					t.Fatal(err)
				}
				if err := b.WriteBlock(arr.Name, tc.written, 0, ones); err != nil {
					t.Fatal(err)
				}
				got, err := b.ReadBlock(arr.Name, tc.unwritten, 0)
				if err != nil {
					t.Fatalf("read unwritten block row %d: %v", tc.unwritten, err)
				}
				for i, v := range got.Data {
					if v != 0 {
						t.Fatalf("unwritten block row %d element %d = %v, want 0", tc.unwritten, i, v)
					}
				}
				assertBlocks(t, b, arr, map[[2]int64]*blas.Matrix{{tc.written, 0}: ones})

				// Cut the file off partway through block row 1.
				if err := b.WriteBlock(arr.Name, tc.unwritten, 0, ones); err != nil {
					t.Fatal(err)
				}
				blockBytes := int64(8 * arr.BlockRows * arr.BlockCols)
				if err := os.Truncate(filepath.Join(dir, arr.Name+".daf"), 2*blockBytes-8); err != nil {
					t.Fatal(err)
				}
				if _, err := b.ReadBlock(arr.Name, 1, 0); err == nil {
					t.Fatal("a block cut off by the end of its file read without error")
				}
			})
		}
	}
}
