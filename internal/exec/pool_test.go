package exec

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"riotshare/internal/blas"
	"riotshare/internal/buffer"
	"riotshare/internal/core"
	"riotshare/internal/disk"
	"riotshare/internal/prog"
	"riotshare/internal/storage"
)

// poolStore opens a store with one 2x2-block array "A" whose block (r,c)
// holds 100r+10c in its first element.
func poolStore(t *testing.T) *storage.Manager {
	t.Helper()
	m, err := storage.NewManager(t.TempDir(), storage.FormatDAF)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	if err := m.Create(&prog.Array{Name: "A", BlockRows: 4, BlockCols: 4, GridRows: 2, GridCols: 2}); err != nil {
		t.Fatal(err)
	}
	for r := int64(0); r < 2; r++ {
		for c := int64(0); c < 2; c++ {
			blk := blas.NewMatrix(4, 4)
			blk.Data[0] = float64(100*r + 10*c)
			if err := m.WriteBlock("A", r, c, blk); err != nil {
				t.Fatal(err)
			}
		}
	}
	return m
}

// pinnedFrames counts the direct pool's frames: it holds nothing else, every
// frame is a pinned one.
func (d *directPool) pinnedFrames() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.frames)
}

// The BlockPool contract, over every implementation the engine runs on: the
// shared pool, an aliasing session of it, and the pass-through pool of a run
// without one.
func TestBlockPoolContract(t *testing.T) {
	impls := []struct {
		name string
		// open returns the pool under test, the array name it knows "A" by,
		// and a count of the frames it still holds pinned.
		open func(m *storage.Manager) (pool BlockPool, array string, pinned func() int)
	}{
		{"buffer.Pool", func(m *storage.Manager) (BlockPool, string, func() int) {
			p := buffer.NewPool(m, 0)
			return p, "A", func() int { return p.Stats().PinnedFrames }
		}},
		{"buffer.Session", func(m *storage.Manager) (BlockPool, string, func() int) {
			p := buffer.NewPool(m, 0)
			return p.Session(map[string]string{"alias": "A"}), "alias", func() int { return p.Stats().PinnedFrames }
		}},
		{"directPool", func(m *storage.Manager) (BlockPool, string, func() int) {
			d := newDirectPool(m, true)
			return d, "A", d.pinnedFrames
		}},
	}
	for _, impl := range impls {
		t.Run(impl.name, func(t *testing.T) {
			m := poolStore(t)
			pool, array, pinned := impl.open(m)

			// Concurrent acquirers share one matrix, and so does a later one
			// while the block stays pinned.
			const n = 8
			got := make([]*blas.Matrix, n)
			var wg sync.WaitGroup
			for i := range got {
				wg.Add(1)
				go func() {
					defer wg.Done()
					blk, err := pool.Acquire(array, 1, 1)
					if err != nil {
						t.Error(err)
					}
					got[i] = blk
				}()
			}
			wg.Wait()
			if t.Failed() {
				t.FailNow()
			}
			b1 := got[0]
			if b1.Data[0] != 110 {
				t.Fatalf("A[1,1] = %g, want 110", b1.Data[0])
			}
			for i, blk := range got {
				if blk != b1 {
					t.Fatalf("concurrent acquirer %d got a different matrix", i)
				}
			}
			again, err := pool.Acquire(array, 1, 1)
			if err != nil {
				t.Fatal(err)
			}
			if again != b1 {
				t.Fatal("Acquire of a pinned block returned a different matrix")
			}
			if reads := m.Stats().ReadReqs; reads != 1 {
				t.Fatalf("%d acquisitions of one pinned block cost %d store reads, want 1", n+1, reads)
			}
			if pinned() != 1 {
				t.Fatalf("%d frames pinned, want 1", pinned())
			}

			// Put leaves the earlier borrowers' view intact, the next
			// Acquire sees the Put value, and the writer may go on changing
			// its own block.
			mine := blas.NewMatrix(4, 4)
			mine.Data[0] = 7
			if err := pool.Put(array, 1, 1, mine); err != nil {
				t.Fatal(err)
			}
			mine.Data[0] = 8
			if b1.Data[0] != 110 {
				t.Fatalf("Put changed an earlier borrower's block: got %g, want 110", b1.Data[0])
			}
			b3, err := pool.Acquire(array, 1, 1)
			if err != nil {
				t.Fatal(err)
			}
			if b3 == b1 || b3 == mine || b3.Data[0] != 7 {
				t.Fatalf("Acquire after Put = %g (borrower's matrix: %v, writer's: %v), want a third matrix holding 7",
					b3.Data[0], b3 == b1, b3 == mine)
			}

			// One pin per Acquire and per Put; releasing them all leaves
			// nothing pinned.
			pool.Unpin(array, 1, 1, n+1) // the acquirers
			if pinned() != 1 {
				t.Fatalf("%d frames pinned with the Put's and one Acquire's pin outstanding, want 1", pinned())
			}
			pool.Unpin(array, 1, 1, 2)
			if pinned() != 0 {
				t.Fatalf("%d frames pinned after every pin was released, want 0", pinned())
			}
		})
	}
}

var errInjected = errors.New("injected I/O failure")

// faultyStore fails every ReadBlock from the failRead-th on, or every
// WriteBlock from the failWrite-th on (0 = never), and counts the calls that
// arrive once sealed.
type faultyStore struct {
	storage.Backend
	failRead, failWrite int64
	reads, writes       atomic.Int64
	sealed              atomic.Bool
	late                atomic.Int64
}

func (f *faultyStore) note() {
	if f.sealed.Load() {
		f.late.Add(1)
	}
}

func (f *faultyStore) ReadBlock(array string, r, c int64) (*blas.Matrix, error) {
	f.note()
	if n := f.reads.Add(1); f.failRead > 0 && n >= f.failRead {
		return nil, fmt.Errorf("read %s[%d,%d]: %w", array, r, c, errInjected)
	}
	return f.Backend.ReadBlock(array, r, c)
}

func (f *faultyStore) WriteBlock(array string, r, c int64, blk *blas.Matrix) error {
	f.note()
	if n := f.writes.Add(1); f.failWrite > 0 && n >= f.failWrite {
		return fmt.Errorf("write %s[%d,%d]: %w", array, r, c, errInjected)
	}
	return f.Backend.WriteBlock(array, r, c, blk)
}

// A run whose n-th block read or write fails returns that error, leaves no
// frame pinned — the prefetch window's pins included — and has no goroutine
// still talking to the store, under either schedule and either kind of pool.
// A shared pool defers writes, so there a failed write-back surfaces at the
// flush instead.
func TestFailedIOReleasesEveryPin(t *testing.T) {
	p := addMulProgram(3, 4, 2)
	res, err := core.Optimize(p, core.Options{BindParams: true})
	if err != nil {
		t.Fatal(err)
	}
	var stores []*faultyStore
	// run executes pl over a fresh store that fails as told, checks that
	// nothing stays pinned, and returns the store and the run's (or, for a
	// deferred write, the flush's) error.
	run := func(name string, pl *core.EvaluatedPlan, workers int, pooled bool, failRead, failWrite int64) (*faultyStore, error) {
		m, err := storage.NewManager(t.TempDir(), storage.FormatDAF)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { m.Close() })
		if err := m.CreateAll(p); err != nil {
			t.Fatal(err)
		}
		fillInputs(t, p, m, 42)
		fs := &faultyStore{Backend: m, failRead: failRead, failWrite: failWrite}
		stores = append(stores, fs)

		var pool BlockPool
		var pinned func() int
		flush := func() error { return nil }
		if pooled {
			// Two blocks of capacity: evictions write back mid-run.
			bp := buffer.NewPool(fs, 2*6*5*8)
			pool, flush = bp, bp.Flush
			pinned = func() int { return bp.Stats().PinnedFrames }
		} else {
			d := newDirectPool(fs, workers > 1)
			pool, pinned = d, d.pinnedFrames
		}
		eng := &Engine{Store: fs, Model: disk.PaperModel()}
		_, err = eng.RunOptions(pl.Timeline, Options{Workers: workers, Pool: pool})
		if got := pinned(); got != 0 {
			t.Errorf("%s: %d frames still pinned after the run", name, got)
		}
		if err == nil {
			err = flush()
		}
		fs.sealed.Store(true)
		return fs, err
	}

	// The baseline shares nothing (every access is I/O, the widest prefetch
	// walk); the best plan has hold intervals, whose pins must go too.
	for _, pl := range []*core.EvaluatedPlan{res.Baseline(), &res.Plans[0]} {
		for _, workers := range []int{1, 4} {
			for _, pooled := range []bool{false, true} {
				name := fmt.Sprintf("%s/workers=%d/pooled=%v", pl.Label, workers, pooled)
				clean, err := run(name, pl, workers, pooled, 0, 0)
				if err != nil {
					t.Fatalf("%s: clean run: %v", name, err)
				}
				// Fail early, a third and two thirds of the way in: physical
				// counts vary a little with scheduling, never by a third.
				for _, frac := range []int64{0, 1, 2} {
					for _, n := range []struct{ read, write int64 }{
						{read: 1 + frac*clean.reads.Load()/3},
						{write: 1 + frac*clean.writes.Load()/3},
					} {
						name := fmt.Sprintf("%s/failRead=%d/failWrite=%d", name, n.read, n.write)
						if _, err := run(name, pl, workers, pooled, n.read, n.write); !errors.Is(err, errInjected) {
							t.Errorf("%s: run returned %v, want the injected failure", name, err)
						}
					}
				}
			}
		}
	}
	for _, fs := range stores {
		if late := fs.late.Load(); late != 0 {
			t.Errorf("%d store calls arrived after their run had returned", late)
		}
	}
}

// flakyPool fails the first Acquire it sees, once, without reaching the pool.
type flakyPool struct {
	BlockPool
	tripped atomic.Bool
}

func (f *flakyPool) Acquire(array string, r, c int64) (*blas.Matrix, error) {
	if f.tripped.CompareAndSwap(false, true) {
		return nil, errInjected
	}
	return f.BlockPool.Acquire(array, r, c)
}

// A failed acquisition for the prefetch window is not the run's failure: the
// consumer's own Acquire gets to retry, and the window releases no pin it
// never got. The copy-on-write timeline starts with one ready event, and a
// memory cap equal to the plan's peak leaves the prefetcher no headroom, so
// the run's first Acquire is that event pinning X for the window.
func TestWindowAcquireFailureLeftToConsumer(t *testing.T) {
	tl := copyOnWriteTimeline()
	for _, pooled := range []bool{false, true} {
		m := copyOnWriteStore(t, tl)
		var pool BlockPool
		var pinned func() int
		if pooled {
			bp := buffer.NewPool(m, 0)
			pool, pinned = bp, func() int { return bp.Stats().PinnedFrames }
		} else {
			d := newDirectPool(m, true)
			pool, pinned = d, d.pinnedFrames
		}
		eng := &Engine{Store: m, Model: disk.PaperModel()}
		clean, err := eng.RunOptions(tl, Options{Workers: 2, Pool: pool})
		if err != nil {
			t.Fatal(err)
		}
		eng.MemCapBytes = clean.PeakMemoryBytes
		flaky := &flakyPool{BlockPool: pool}
		r, err := eng.RunOptions(tl, Options{Workers: 2, Pool: flaky})
		if err != nil {
			t.Errorf("pooled=%v: a failed window acquisition failed the run: %v", pooled, err)
		}
		if r.PrefetchIssued != 0 || !flaky.tripped.Load() || pinned() != 0 {
			t.Errorf("pooled=%v: %d prefetches issued, tripped=%v, %d frames still pinned; want 0, true, 0",
				pooled, r.PrefetchIssued, flaky.tripped.Load(), pinned())
		}
	}
}
