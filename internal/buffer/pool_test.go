package buffer

import (
	"fmt"
	"sync"
	"testing"

	"riotshare/internal/blas"
	"riotshare/internal/prog"
	"riotshare/internal/storage"
)

// newTestPool builds a manager with one 4x4-grid array of 8x8 blocks,
// seeds every block with a coordinate-derived value, and wraps it in a
// pool of the given capacity.
func newTestPool(t testing.TB, capBytes int64) (*Pool, *storage.Manager) {
	t.Helper()
	m, err := storage.NewManager(t.TempDir(), storage.FormatDAF)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	arr := &prog.Array{Name: "A", BlockRows: 8, BlockCols: 8, GridRows: 4, GridCols: 4}
	if err := m.Create(arr); err != nil {
		t.Fatal(err)
	}
	for r := int64(0); r < 4; r++ {
		for c := int64(0); c < 4; c++ {
			blk := blas.NewMatrix(8, 8)
			for i := range blk.Data {
				blk.Data[i] = float64(r*100 + c*10)
			}
			if err := m.WriteBlock("A", r, c, blk); err != nil {
				t.Fatal(err)
			}
		}
	}
	return NewPool(m, capBytes), m
}

const testBlockBytes = 8 * 8 * 8 // one 8x8 float64 block

// Acquire lends out the frame's own matrix: every acquirer of a resident
// block holds the same one, a hit costs no block copy, and a later Put
// swaps the frame's matrix instead of overwriting it, so an earlier
// borrower's view never changes.
func TestAcquireBorrowsTheFrame(t *testing.T) {
	p, _ := newTestPool(t, 0)
	b1, err := p.Acquire("A", 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if b1.Data[0] != 120 {
		t.Fatalf("A[1,2] = %g, want 120", b1.Data[0])
	}
	b2, err := p.Acquire("A", 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if b2 != b1 {
		t.Fatal("two Acquires of a resident block returned different matrices")
	}
	st := p.Stats()
	if st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("stats = %+v, want 1 miss 1 hit", st)
	}
	if st.PinnedFrames != 1 {
		t.Fatalf("PinnedFrames = %d, want 1", st.PinnedFrames)
	}

	// A Put installs a copy of the writer's block in the frame: the earlier
	// borrower keeps the old value, the next Acquire sees the new one, and
	// the writer may go on changing its own block.
	mine := blas.NewMatrix(8, 8)
	mine.Data[0] = 7
	if err := p.Put("A", 1, 2, mine); err != nil {
		t.Fatal(err)
	}
	mine.Data[0] = 8
	if b1.Data[0] != 120 {
		t.Fatalf("Put changed an earlier borrower's block: got %g, want 120", b1.Data[0])
	}
	b3, err := p.Acquire("A", 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if b3 == b1 || b3.Data[0] != 7 {
		t.Fatalf("Acquire after Put = %g (same matrix as before: %v), want the Put value 7", b3.Data[0], b3 == b1)
	}
	p.Unpin("A", 1, 2, 4)
	if st := p.Stats(); st.PinnedFrames != 0 {
		t.Fatalf("after unpin PinnedFrames = %d, want 0", st.PinnedFrames)
	}

	// The hit path copies no block and allocates no key.
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := p.Acquire("A", 1, 2); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("a pool hit allocates %v times, want 0", allocs)
	}
}

func TestLRUEvictionRespectsPins(t *testing.T) {
	// Capacity of two blocks.
	p, _ := newTestPool(t, 2*testBlockBytes)
	// Pin three blocks: capacity is a soft bound, all three stay resident.
	for c := int64(0); c < 3; c++ {
		if _, err := p.Acquire("A", 0, c); err != nil {
			t.Fatal(err)
		}
	}
	if st := p.Stats(); st.Frames != 3 || st.Evictions != 0 {
		t.Fatalf("pinned overage evicted: %+v", st)
	}
	// Releasing pins lets the pool shrink back to capacity; the LRU victim
	// is the first-released block.
	p.Unpin("A", 0, 0, 1)
	p.Unpin("A", 0, 1, 1)
	p.Unpin("A", 0, 2, 1)
	st := p.Stats()
	if st.Frames != 2 || st.BytesCached != 2*testBlockBytes {
		t.Fatalf("after unpin: %+v, want 2 frames", st)
	}
	// A[0,0] was evicted; A[0,1] and A[0,2] remain.
	if _, err := p.Acquire("A", 0, 1); err != nil {
		t.Fatal(err)
	}
	if got := p.Stats().Hits; got != 1 {
		t.Fatalf("A[0,1] should still be cached (hits=%d)", got)
	}
	if _, err := p.Acquire("A", 0, 0); err != nil {
		t.Fatal(err)
	}
	if got := p.Stats().Misses; got != 4 {
		t.Fatalf("A[0,0] should have been the LRU victim (misses=%d, want 4)", got)
	}
}

func TestDirtyWritebackOnEvictionAndFlush(t *testing.T) {
	p, m := newTestPool(t, 1*testBlockBytes)
	blk := blas.NewMatrix(8, 8)
	for i := range blk.Data {
		blk.Data[i] = 7
	}
	if err := p.Put("A", 2, 2, blk); err != nil {
		t.Fatal(err)
	}
	// Still dirty in the pool: a pool read sees the new value...
	got, err := p.Acquire("A", 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got.Data[0] != 7 {
		t.Fatalf("pool read after Put = %g, want 7", got.Data[0])
	}
	// ...and eviction (unpin Put's pin + Acquire's pin, then displace with
	// another block) writes it back to storage.
	p.Unpin("A", 2, 2, 2)
	if _, err := p.Acquire("A", 0, 3); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.Writebacks != 1 || st.Evictions != 1 {
		t.Fatalf("eviction write-back missing: %+v", st)
	}
	onDisk, err := m.ReadBlock("A", 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if onDisk.Data[0] != 7 {
		t.Fatalf("storage after eviction = %g, want 7", onDisk.Data[0])
	}

	// Flush covers dirty frames that were never evicted.
	blk.Data[0] = 9
	if err := p.Put("A", 3, 3, blk); err != nil {
		t.Fatal(err)
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	onDisk, err = m.ReadBlock("A", 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if onDisk.Data[0] != 9 {
		t.Fatalf("storage after flush = %g, want 9", onDisk.Data[0])
	}
}

func TestConcurrentAcquireCoalesces(t *testing.T) {
	p, _ := newTestPool(t, 0)
	var wg sync.WaitGroup
	var lent sync.Map // block key -> the matrix its first acquirer got
	errs := make(chan error, 64)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := 0; it < 8; it++ {
				r, c := int64(it%4), int64(it%3)
				blk, err := p.Acquire("A", r, c)
				if err != nil {
					errs <- err
					return
				}
				for _, v := range blk.Data {
					if v != float64(r*100+c*10) {
						errs <- fmt.Errorf("A[%d,%d] holds %g", r, c, v)
						return
					}
				}
				// Leader, coalesced followers and later hits all borrow
				// the one frame matrix.
				if first, _ := lent.LoadOrStore(poolKey("A", r, c), blk); first != blk {
					errs <- fmt.Errorf("A[%d,%d]: two acquirers got different matrices", r, c)
					return
				}
				p.Unpin("A", r, c, 1)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := p.Stats()
	// 8 distinct blocks touched: exactly one physical miss each, no
	// matter how the 128 acquisitions interleave.
	if st.Misses != 8 {
		t.Fatalf("misses = %d, want 8 (coalesced)", st.Misses)
	}
	if st.Hits != 16*8-8 {
		t.Fatalf("hits = %d, want %d", st.Hits, 16*8-8)
	}
}

func TestSessionAliasing(t *testing.T) {
	p, m := newTestPool(t, 0)
	// Register the private namespaced output array.
	if err := m.Create(&prog.Array{Name: "q1.Out", BlockRows: 8, BlockCols: 8, GridRows: 1, GridCols: 1}); err != nil {
		t.Fatal(err)
	}
	sess := p.Session(map[string]string{"Out": "q1.Out"})
	// Reads of unaliased arrays share the pool's frames.
	if _, err := p.Acquire("A", 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Acquire("A", 0, 0); err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.Hits != 1 {
		t.Fatalf("aliased session should share input frames: %+v", st)
	}
	// Writes land under the physical name.
	blk := blas.NewMatrix(8, 8)
	blk.Data[0] = 5
	if err := sess.Put("Out", 0, 0, blk); err != nil {
		t.Fatal(err)
	}
	sess.Unpin("Out", 0, 0, 1)
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	onDisk, err := m.ReadBlock("q1.Out", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if onDisk.Data[0] != 5 {
		t.Fatalf("aliased write = %g, want 5", onDisk.Data[0])
	}
}

// blockingStore wraps a backend so a test can hold a WriteBlock
// mid-flight: when armed, a write signals entered and then gates on
// release before reaching the underlying store.
type blockingStore struct {
	storage.Backend
	mu      sync.Mutex
	armed   bool
	entered chan struct{}
	release chan struct{}
}

func (b *blockingStore) WriteBlock(array string, r, c int64, blk *blas.Matrix) error {
	b.mu.Lock()
	armed := b.armed
	b.mu.Unlock()
	if armed {
		b.entered <- struct{}{}
		<-b.release
	}
	return b.Backend.WriteBlock(array, r, c, blk)
}

// TestReleaseBlockWritebackOutsideLock pins two properties of the release
// path: the dirty write-back runs without the pool lock held (other pool
// operations proceed while it is in flight), and a re-Put landing during
// the write-back keeps its fresh data dirty instead of having it
// clobbered by the stale flush's bookkeeping.
func TestReleaseBlockWritebackOutsideLock(t *testing.T) {
	m, err := storage.NewManager(t.TempDir(), storage.FormatDAF)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	if err := m.Create(&prog.Array{Name: "A", BlockRows: 8, BlockCols: 8, GridRows: 1, GridCols: 1}); err != nil {
		t.Fatal(err)
	}
	bs := &blockingStore{Backend: m, entered: make(chan struct{}), release: make(chan struct{})}
	p := NewPool(bs, 0)

	blk := blas.NewMatrix(8, 8)
	blk.Data[0] = 1
	if err := p.Put("A", 0, 0, blk); err != nil {
		t.Fatal(err)
	}
	p.Unpin("A", 0, 0, 1)

	bs.mu.Lock()
	bs.armed = true
	bs.mu.Unlock()
	done := make(chan error, 1)
	go func() { done <- p.ReleaseBlock("A", 0, 0) }()
	<-bs.entered // the release's write-back is now parked inside the store

	// Concurrent pool traffic must not stall: a re-Put of the same block
	// completes while the write-back is still in flight. (Before the fix
	// this deadlocked — ReleaseBlock held p.mu across the store write.)
	blk2 := blas.NewMatrix(8, 8)
	blk2.Data[0] = 2
	if err := p.Put("A", 0, 0, blk2); err != nil {
		t.Fatal(err)
	}
	p.Unpin("A", 0, 0, 1)

	bs.mu.Lock()
	bs.armed = false
	bs.mu.Unlock()
	close(bs.release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	// The stale write-back must not have marked the re-Put's data clean:
	// the frame is still dirty, so Flush lands the fresh value on disk.
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	onDisk, err := m.ReadBlock("A", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if onDisk.Data[0] != 2 {
		t.Fatalf("storage after release+flush = %g, want 2 (re-Put lost to stale write-back)", onDisk.Data[0])
	}
}

func TestInvalidateArray(t *testing.T) {
	p, m := newTestPool(t, 0)
	if err := m.Create(&prog.Array{Name: "q1.Out", BlockRows: 8, BlockCols: 8, GridRows: 1, GridCols: 1}); err != nil {
		t.Fatal(err)
	}
	blk := blas.NewMatrix(8, 8)
	blk.Data[0] = 3
	if err := p.Put("q1.Out", 0, 0, blk); err != nil {
		t.Fatal(err)
	}
	p.Unpin("q1.Out", 0, 0, 1)
	if _, err := p.Acquire("A", 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := p.InvalidateArray("q1.Out"); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.Frames != 1 {
		t.Fatalf("frames = %d, want only A[0,0] left", st.Frames)
	}
	onDisk, err := m.ReadBlock("q1.Out", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if onDisk.Data[0] != 3 {
		t.Fatalf("invalidate lost dirty data: %g", onDisk.Data[0])
	}
}
