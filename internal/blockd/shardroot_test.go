// shardroot_test.go pins down what one shard root is — the same contract
// whether it is a local *storage.Manager or a riotblockd behind a
// RemoteShard — and how the server treats frames no honest client sends.
package blockd_test

import (
	"bytes"
	"errors"
	"io/fs"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"riotshare/internal/blas"
	"riotshare/internal/blockproto"
	"riotshare/internal/prog"
	"riotshare/internal/storage"
)

// shardRoot is the shard-root surface both shard kinds export.
type shardRoot interface {
	storage.Backend
	Ensure(arr *prog.Array) error
	ReadManifest() ([]byte, error)
	WriteManifest(data []byte) error
	RemoveManifest() error
	StoreExists(array string) (bool, error)
	WipeStore(array string) error
	PrepareRepair() error
}

// One sequence, two shard kinds: manifests, store lifecycle, Ensure's
// geometry rule and name confinement must not depend on whether the root
// is a local directory or a riotblockd address.
func TestShardRootContract(t *testing.T) {
	kinds := []struct {
		name string
		open func(t *testing.T, root string) shardRoot
	}{
		{"local", func(t *testing.T, root string) shardRoot {
			m, err := storage.NewManager(root, storage.FormatDAF)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { m.Close() })
			return m
		}},
		{"remote", func(t *testing.T, root string) shardRoot {
			rs := storage.NewRemoteShard(startServer(t, root).Addr(), storage.RemoteOptions{})
			t.Cleanup(func() { rs.Close() })
			return rs
		}},
	}
	for _, kind := range kinds {
		t.Run(kind.name, func(t *testing.T) {
			parent := t.TempDir()
			sentinel := filepath.Join(parent, "x.daf")
			if err := os.WriteFile(sentinel, []byte("keep"), 0o644); err != nil {
				t.Fatal(err)
			}
			sr := kind.open(t, filepath.Join(parent, "root"))
			if err := sr.PrepareRepair(); err != nil {
				t.Fatalf("PrepareRepair: %v", err)
			}

			// Manifest: missing, then put/get, then removed (twice).
			if _, err := sr.ReadManifest(); !errors.Is(err, fs.ErrNotExist) {
				t.Fatalf("missing manifest: err = %v, want fs.ErrNotExist", err)
			}
			want := []byte(`{"version":1}` + "\n")
			if err := sr.WriteManifest(want); err != nil {
				t.Fatal(err)
			}
			if got, err := sr.ReadManifest(); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("ReadManifest = %q, %v; want %q", got, err, want)
			}
			for i := 0; i < 2; i++ {
				if err := sr.RemoveManifest(); err != nil {
					t.Fatalf("RemoveManifest #%d: %v", i+1, err)
				}
			}
			if _, err := sr.ReadManifest(); !errors.Is(err, fs.ErrNotExist) {
				t.Fatalf("removed manifest: err = %v, want fs.ErrNotExist", err)
			}

			// Store lifecycle: absent → created → wiped (twice).
			arr := testArray("A")
			exists := func(want bool) {
				t.Helper()
				if got, err := sr.StoreExists(arr.Name); err != nil || got != want {
					t.Fatalf("StoreExists = %v, %v; want %v", got, err, want)
				}
			}
			exists(false)
			if err := sr.Create(arr); err != nil {
				t.Fatal(err)
			}
			exists(true)
			for i := 0; i < 2; i++ {
				if err := sr.WipeStore(arr.Name); err != nil {
					t.Fatalf("WipeStore #%d: %v", i+1, err)
				}
			}
			exists(false)

			// Ensure: creates, is a no-op for the same geometry (data
			// kept), and re-registers under a new one.
			if err := sr.Ensure(arr); err != nil {
				t.Fatal(err)
			}
			blocks := fillBlocks(t, sr, arr, 71)
			if err := sr.Ensure(arr); err != nil {
				t.Fatal(err)
			}
			assertBlocks(t, sr, arr, blocks)
			wide := &prog.Array{Name: "A", BlockRows: 2, BlockCols: 6, GridRows: 3, GridCols: 2}
			if err := sr.Ensure(wide); err != nil {
				t.Fatal(err)
			}
			if err := sr.WriteBlock("A", 0, 0, blas.NewMatrix(arr.BlockRows, arr.BlockCols)); err == nil {
				t.Error("write in the old shape accepted after Ensure re-registered the array")
			}
			fillBlocks(t, sr, wide, 73)

			// Names that would resolve outside the root fail everywhere
			// and touch nothing.
			for _, name := range []string{"../x", "..", "a/b"} {
				if err := sr.Create(testArray(name)); err == nil {
					t.Errorf("Create(%q) succeeded", name)
				}
				if err := sr.Ensure(testArray(name)); err == nil {
					t.Errorf("Ensure(%q) succeeded", name)
				}
				if _, err := sr.StoreExists(name); err == nil {
					t.Errorf("StoreExists(%q) succeeded", name)
				}
				if err := sr.WipeStore(name); err == nil {
					t.Errorf("WipeStore(%q) succeeded", name)
				}
			}
			if got, err := os.ReadFile(sentinel); err != nil || string(got) != "keep" {
				t.Errorf("sentinel outside the root = %q, %v; want it intact", got, err)
			}
		})
	}
}

// request sends one raw frame and returns the server's answer.
func request(t *testing.T, conn net.Conn, op byte, payload *blockproto.Enc) (byte, []byte) {
	t.Helper()
	if err := blockproto.WriteFrame(conn, op, payload); err != nil {
		t.Fatal(err)
	}
	_, status, resp, err := blockproto.ReadFrame(conn)
	if err != nil {
		t.Fatalf("op %d: no answer: %v", op, err)
	}
	return status, resp
}

func dial(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

// A write frame declaring a 2³²−1 × 2³²−1 block once panicked the server
// process (the matrix was allocated before the payload was checked). It is
// a bad request, and the server keeps serving.
func TestHostileWriteShapeIsBadRequest(t *testing.T) {
	conn := dial(t, startServer(t, t.TempDir()).Addr())
	e := new(blockproto.Enc).Str("A").I64(0).I64(0).U32(0xFFFFFFFF).U32(0xFFFFFFFF).Blob(make([]byte, 8))
	if st, resp := request(t, conn, blockproto.OpWrite, e); st != blockproto.StatusBadRequest {
		t.Errorf("hostile write: status %d (%q), want StatusBadRequest", st, resp)
	}
	if st, _ := request(t, conn, blockproto.OpPing, nil); st != blockproto.StatusOK {
		t.Errorf("ping after hostile write: status %d", st)
	}
}

// A create of a 2²⁰ × 2²⁰ block was once accepted, and the next read of it
// killed the server allocating 8 TiB. Geometry no frame can carry — or with
// a zero dimension — is a bad request, so there is nothing to read.
func TestHostileCreateGeometryIsBadRequest(t *testing.T) {
	conn := dial(t, startServer(t, t.TempDir()).Addr())
	create := func(name string, blockRows, blockCols, gridRows, gridCols uint32) *blockproto.Enc {
		return new(blockproto.Enc).Str(name).U32(blockRows).U32(blockCols).U32(gridRows).U32(gridCols).I64(0).U8(0)
	}
	stCreate, _ := request(t, conn, blockproto.OpCreate, create("H", 1<<20, 1<<20, 1, 1))
	stRead, _ := request(t, conn, blockproto.OpRead, new(blockproto.Enc).Str("H").I64(0).I64(0))
	if stCreate != blockproto.StatusBadRequest || stRead != blockproto.StatusUnknownArray {
		t.Errorf("terabyte block: create status %d, read status %d; want StatusBadRequest, StatusUnknownArray", stCreate, stRead)
	}
	for _, g := range [][4]uint32{{0, 3, 1, 1}, {3, 0, 1, 1}, {3, 3, 0, 1}, {3, 3, 1, 0}, {4096, 4096, 1, 1}} {
		if st, _ := request(t, conn, blockproto.OpCreate, create("Z", g[0], g[1], g[2], g[3])); st != blockproto.StatusBadRequest {
			t.Errorf("create %dx%d blocks in a %dx%d grid: status %d, want StatusBadRequest", g[0], g[1], g[2], g[3], st)
		}
	}
	// The largest block whose write request still fits one frame is fine.
	if st, resp := request(t, conn, blockproto.OpCreate, create("Big", 1024, 8000, 1, 1)); st != blockproto.StatusOK {
		t.Errorf("create of a 1024x8000 block: status %d (%q)", st, resp)
	}
}

// Stats must not poll degraded shards — a scrape would otherwise dial a
// shard already taken offline, up to every retry of every attempt — and
// equals the sum of ShardStats, which skips them too.
func TestStatsSkipsDegradedShards(t *testing.T) {
	proxy := newStallProxy(t, "", 1<<30) // stalls every connection
	specs := []string{t.TempDir(), proxy.ln.Addr().String(), t.TempDir(), t.TempDir()}
	sm, err := storage.OpenSharded(specs, storage.ShardedOptions{
		Replicas: 2,
		Remote:   storage.RemoteOptions{OpTimeout: 50 * time.Millisecond, Retries: 1, RetryBackoff: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sm.Close()
	if err := sm.DegradeShard(1); err != nil {
		t.Fatal(err)
	}
	arr := testArray("A")
	if err := sm.Create(arr); err != nil {
		t.Fatal(err)
	}
	fillBlocks(t, sm, arr, 79)
	// A live local shard degraded after taking writes: its counters must
	// drop out of Stats along with the unreachable one.
	if err := sm.DegradeShard(3); err != nil {
		t.Fatal(err)
	}

	got := sm.Stats()
	var sum storage.Stats
	for _, st := range sm.ShardStats() {
		sum.ReadReqs += st.ReadReqs
		sum.ReadBytes += st.ReadBytes
		sum.WriteReqs += st.WriteReqs
		sum.WriteBytes += st.WriteBytes
	}
	if got != sum {
		t.Errorf("Stats() = %+v, Σ ShardStats() = %+v", got, sum)
	}
	if got.WriteReqs == 0 {
		t.Error("Stats() counted no writes on the live shards")
	}
	if n := proxy.accepts(); n != 0 {
		t.Errorf("degraded remote shard was dialed %d times", n)
	}
}
