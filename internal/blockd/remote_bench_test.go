// remote_bench_test.go measures the network plane's round-trip cost: a
// 64-block sweep against one riotblockd server — serial (one in-flight
// request) vs pipelined (requests overlapped across the connection pool) —
// with the same sweep against a local directory Manager as the baseline.
package blockd_test

import (
	"sync"
	"testing"

	"riotshare/internal/blas"
	"riotshare/internal/blockd"
	"riotshare/internal/prog"
	"riotshare/internal/storage"
)

// benchArray is the 64-block benchmark working set: 32x32 float64 blocks,
// 8x8 grid (8 KiB per block, 512 KiB total).
func benchArray() *prog.Array {
	return &prog.Array{Name: "B", BlockRows: 32, BlockCols: 32, GridRows: 8, GridCols: 8}
}

// fillBench creates and fills the benchmark array on a backend.
func fillBench(b *testing.B, store storage.Backend, arr *prog.Array) {
	b.Helper()
	if err := store.Create(arr); err != nil {
		b.Fatal(err)
	}
	blk := blas.NewMatrix(arr.BlockRows, arr.BlockCols)
	for i := range blk.Data {
		blk.Data[i] = float64(i)
	}
	for r := int64(0); r < int64(arr.GridRows); r++ {
		for c := int64(0); c < int64(arr.GridCols); c++ {
			if err := store.WriteBlock(arr.Name, r, c, blk); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// startBenchServer boots an in-process riotblockd and a client for it.
func startBenchServer(b *testing.B, pool int) (*blockd.Server, *storage.RemoteShard) {
	b.Helper()
	srv, err := blockd.New(b.TempDir(), blockd.Options{})
	if err != nil {
		b.Fatal(err)
	}
	if err := srv.ListenAndServe("127.0.0.1:0"); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { srv.Close() })
	rs := storage.NewRemoteShard(srv.Addr(), storage.RemoteOptions{PoolSize: pool})
	b.Cleanup(func() { rs.Close() })
	return srv, rs
}

// sweepSerial reads every block one request at a time — each read pays a
// full round-trip of latency.
func sweepSerial(b *testing.B, store storage.Backend, arr *prog.Array) {
	b.Helper()
	for r := int64(0); r < int64(arr.GridRows); r++ {
		for c := int64(0); c < int64(arr.GridCols); c++ {
			if _, err := store.ReadBlock(arr.Name, r, c); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// sweepPipelined reads every block with 8 concurrent readers, so requests
// overlap on the wire (pipelined over the connection pool).
func sweepPipelined(b *testing.B, store storage.Backend, arr *prog.Array) {
	b.Helper()
	type coord struct{ r, c int64 }
	work := make(chan coord, arr.GridRows*arr.GridCols)
	for r := int64(0); r < int64(arr.GridRows); r++ {
		for c := int64(0); c < int64(arr.GridCols); c++ {
			work <- coord{r, c}
		}
	}
	close(work)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for co := range work {
				if _, err := store.ReadBlock(arr.Name, co.r, co.c); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		b.Fatal(err)
	}
}

// BenchmarkRemoteRead sweeps 64 blocks per op: the local-directory
// baseline, the remote serial case (round-trip per block), and the remote
// pipelined case (round-trips overlapped) — the speedup pipelining is for.
func BenchmarkRemoteRead(b *testing.B) {
	arr := benchArray()
	b.Run("local-dir", func(b *testing.B) {
		m, err := storage.NewManager(b.TempDir(), storage.FormatDAF)
		if err != nil {
			b.Fatal(err)
		}
		defer m.Close()
		fillBench(b, m, arr)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sweepSerial(b, m, arr)
		}
	})
	b.Run("remote-serial", func(b *testing.B) {
		_, rs := startBenchServer(b, 4)
		fillBench(b, rs, arr)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sweepSerial(b, rs, arr)
		}
	})
	b.Run("remote-pipelined", func(b *testing.B) {
		_, rs := startBenchServer(b, 4)
		fillBench(b, rs, arr)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sweepPipelined(b, rs, arr)
		}
	})
}

// BenchmarkRemoteWrite sweeps 64 block writes per op, local vs remote.
func BenchmarkRemoteWrite(b *testing.B) {
	arr := benchArray()
	blk := blas.NewMatrix(arr.BlockRows, arr.BlockCols)
	for i := range blk.Data {
		blk.Data[i] = float64(i)
	}
	sweep := func(b *testing.B, store storage.Backend) {
		for r := int64(0); r < int64(arr.GridRows); r++ {
			for c := int64(0); c < int64(arr.GridCols); c++ {
				if err := store.WriteBlock(arr.Name, r, c, blk); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("local-dir", func(b *testing.B) {
		m, err := storage.NewManager(b.TempDir(), storage.FormatDAF)
		if err != nil {
			b.Fatal(err)
		}
		defer m.Close()
		if err := m.Create(arr); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sweep(b, m)
		}
	})
	b.Run("remote", func(b *testing.B) {
		_, rs := startBenchServer(b, 4)
		if err := rs.Create(arr); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sweep(b, rs)
		}
	})
}
