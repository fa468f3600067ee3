package buffer

import (
	"testing"

	"riotshare/internal/blas"
	"riotshare/internal/prog"
	"riotshare/internal/storage"
)

// benchPool seeds a grid x grid array of 32x32 blocks under a pool with
// room for the whole array.
func benchPool(b *testing.B, grid int) *Pool {
	b.Helper()
	m, err := storage.NewManager(b.TempDir(), storage.FormatDAF)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { m.Close() })
	arr := &prog.Array{Name: "A", BlockRows: 32, BlockCols: 32, GridRows: grid, GridCols: grid}
	if err := m.Create(arr); err != nil {
		b.Fatal(err)
	}
	blk := blas.NewMatrix(32, 32)
	for r := int64(0); r < int64(grid); r++ {
		for c := int64(0); c < int64(grid); c++ {
			if err := m.WriteBlock("A", r, c, blk); err != nil {
				b.Fatal(err)
			}
		}
	}
	return NewPool(m, int64(grid*grid)*32*32*8)
}

// BenchmarkPoolAcquireHit measures the steady-state hit path: every block
// resident, one acquire+unpin per op.
func BenchmarkPoolAcquireHit(b *testing.B) {
	p := benchPool(b, 4)
	for r := int64(0); r < 4; r++ {
		for c := int64(0); c < 4; c++ {
			if _, err := p.Acquire("A", r, c); err != nil {
				b.Fatal(err)
			}
			p.Unpin("A", r, c, 1)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, c := int64(i%4), int64((i/4)%4)
		if _, err := p.Acquire("A", r, c); err != nil {
			b.Fatal(err)
		}
		p.Unpin("A", r, c, 1)
	}
	b.StopTimer()
	b.ReportMetric(p.Stats().HitRate(), "hit-rate")
}

// BenchmarkPoolSharedScan is the cross-query sharing scenario: each op is
// one "query" scanning the whole array through the shared pool; every query
// after the first runs entirely from cache.
func BenchmarkPoolSharedScan(b *testing.B) {
	p := benchPool(b, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for r := int64(0); r < 8; r++ {
			for c := int64(0); c < 8; c++ {
				if _, err := p.Acquire("A", r, c); err != nil {
					b.Fatal(err)
				}
				p.Unpin("A", r, c, 1)
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(p.Stats().HitRate(), "hit-rate")
}

// BenchmarkPoolConcurrentShared drives the pool from parallel goroutines
// over one shared block set (the admission layer's steady state).
func BenchmarkPoolConcurrentShared(b *testing.B) {
	p := benchPool(b, 8)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			r, c := int64(i%8), int64((i/8)%8)
			if _, err := p.Acquire("A", r, c); err != nil {
				b.Fatal(err)
			}
			p.Unpin("A", r, c, 1)
			i++
		}
	})
	b.StopTimer()
	b.ReportMetric(p.Stats().HitRate(), "hit-rate")
}
