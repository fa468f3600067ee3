package storage

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"riotshare/internal/prog"
)

// BenchmarkShardedRead measures parallel block reads against a
// sharded-vs-single-directory store on serialized simulated devices (each
// shard serves one request at a time, like a disk head). One op reads the
// whole array with 8 concurrent readers: with one shard the reads queue
// behind a single device, with 4 shards they fan out — the wall-clock
// ratio is the sharding win the prefetcher banks on.
func BenchmarkShardedRead(b *testing.B) {
	const latency = 200 * time.Microsecond
	arr := &prog.Array{Name: "A", BlockRows: 8, BlockCols: 8, GridRows: 8, GridCols: 8}
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			sm, err := OpenSharded(ShardDirs(b.TempDir(), shards), ShardedOptions{})
			if err != nil {
				b.Fatal(err)
			}
			defer sm.Close()
			serializeDevices(sm)
			if err := sm.Create(arr); err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(1))
			for r := int64(0); r < int64(arr.GridRows); r++ {
				for c := int64(0); c < int64(arr.GridCols); c++ {
					if err := sm.WriteBlock("A", r, c, randBlock(rng, arr)); err != nil {
						b.Fatal(err)
					}
				}
			}
			sm.SetLatency(latency, 0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				sem := make(chan struct{}, 8)
				for r := int64(0); r < int64(arr.GridRows); r++ {
					for c := int64(0); c < int64(arr.GridCols); c++ {
						wg.Add(1)
						sem <- struct{}{}
						go func(r, c int64) {
							defer wg.Done()
							defer func() { <-sem }()
							if _, err := sm.ReadBlock("A", r, c); err != nil {
								b.Error(err)
							}
						}(r, c)
					}
				}
				wg.Wait()
			}
		})
	}
}
