package storage

import (
	"sync"
	"testing"
	"time"

	"riotshare/internal/blas"
	"riotshare/internal/prog"
)

// Concurrent reads and writes across goroutines must be safe (the
// pipelined executor and its prefetcher hit the manager from many
// goroutines at once). Coalesced readers share one matrix, which is
// immutable by contract, so every reader — leader or follower — must see
// the stored value.
func TestConcurrentReadWrite(t *testing.T) {
	t.Run("daf", func(t *testing.T) {
		m, err := NewManager(t.TempDir(), FormatDAF)
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		arr := &prog.Array{Name: "A", BlockRows: 16, BlockCols: 16, GridRows: 4, GridCols: 4}
		if err := m.Create(arr); err != nil {
			t.Fatal(err)
		}
		// Seed every block with a value derived from its coordinates.
		for r := int64(0); r < 4; r++ {
			for c := int64(0); c < 4; c++ {
				blk := blas.NewMatrix(16, 16)
				for i := range blk.Data {
					blk.Data[i] = float64(r*100 + c*10)
				}
				if err := m.WriteBlock("A", r, c, blk); err != nil {
					t.Fatal(err)
				}
			}
		}
		var wg sync.WaitGroup
		errs := make(chan error, 64)
		for g := 0; g < 16; g++ {
			g := g
			wg.Add(1)
			go func() {
				defer wg.Done()
				for it := 0; it < 20; it++ {
					// Rows 0-2 only: row 3 is the writers' stripe.
					r, c := int64((g+it)%3), int64(g%4)
					blk, err := m.ReadBlock("A", r, c)
					if err != nil {
						errs <- err
						return
					}
					want := float64(r*100 + c*10)
					for _, v := range blk.Data {
						if v != want {
							t.Errorf("A[%d,%d] holds %g, want %g", r, c, v, want)
							break
						}
					}
				}
			}()
		}
		// Writers on a disjoint block stripe keep the store busy.
		for g := 0; g < 4; g++ {
			g := g
			wg.Add(1)
			go func() {
				defer wg.Done()
				blk := blas.NewMatrix(16, 16)
				for i := range blk.Data {
					blk.Data[i] = float64(300 + g*10)
				}
				for it := 0; it < 20; it++ {
					if err := m.WriteBlock("A", 3, int64(g)%4, blk); err != nil {
						errs <- err
						return
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	})
}

// Coalesced concurrent reads of one block all see the stored data.
func TestCoalescedReadsShareOneRequest(t *testing.T) {
	t.Run("daf", func(t *testing.T) {
		m, err := NewManager(t.TempDir(), FormatDAF)
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		arr := &prog.Array{Name: "B", BlockRows: 8, BlockCols: 8, GridRows: 1, GridCols: 1}
		if err := m.Create(arr); err != nil {
			t.Fatal(err)
		}
		blk := blas.NewMatrix(8, 8)
		for i := range blk.Data {
			blk.Data[i] = float64(i)
		}
		if err := m.WriteBlock("B", 0, 0, blk); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		results := make([]*blas.Matrix, 32)
		for g := range results {
			g := g
			wg.Add(1)
			go func() {
				defer wg.Done()
				got, err := m.ReadBlock("B", 0, 0)
				if err != nil {
					t.Error(err)
					return
				}
				results[g] = got
			}()
		}
		wg.Wait()
		for g, got := range results {
			if got == nil {
				t.Fatal("missing result")
			}
			for i := range got.Data {
				if got.Data[i] != float64(i) {
					t.Fatalf("reader %d: data[%d] = %g, want %d", g, i, got.Data[i], i)
				}
			}
		}
	})
}

// The physical I/O counters must account exactly for the requests that
// reach a store: coalesced followers share the leader's read.
func TestStatsCountPhysicalRequests(t *testing.T) {
	m, err := NewManager(t.TempDir(), FormatDAF)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	arr := &prog.Array{Name: "S", BlockRows: 4, BlockCols: 4, GridRows: 2, GridCols: 1}
	if err := m.Create(arr); err != nil {
		t.Fatal(err)
	}
	blk := blas.NewMatrix(4, 4)
	if err := m.WriteBlock("S", 0, 0, blk); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteBlock("S", 1, 0, blk); err != nil {
		t.Fatal(err)
	}
	if _, err := m.ReadBlock("S", 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := m.ReadBlock("S", 0, 0); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	want := Stats{ReadReqs: 2, ReadBytes: 2 * 4 * 4 * 8, WriteReqs: 2, WriteBytes: 2 * 4 * 4 * 8}
	if st != want {
		t.Fatalf("stats = %+v, want %+v", st, want)
	}
	// Coalesced concurrent readers must count one physical request. Use
	// simulated latency to widen the coalescing window.
	m.SetLatency(50*time.Millisecond, 0)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := m.ReadBlock("S", 1, 0); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	// Typically exactly one more request (all 8 coalesce onto one leader),
	// but a goroutine delayed past the leader's 50ms window legitimately
	// becomes a second leader on a loaded runner — assert the property
	// (some coalescing happened), not the timing cliff.
	if got := m.Stats().ReadReqs; got < 3 || got >= 2+8 {
		t.Fatalf("after coalesced reads: ReadReqs = %d, want in [3,9] with coalescing", got)
	}
}
