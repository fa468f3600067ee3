package storage

import (
	"math/rand"
	"testing"
	"time"

	"riotshare/internal/prog"
)

// BenchmarkDegradedRead measures the latency of replica-fallback reads: one
// op reads every block of the array, healthy (each block off its primary)
// vs degraded (one of four shards down, its blocks served by the next
// replica in ring order). The two should be close — the fallback costs one
// failed local lookup, not a second device wait — which is the number that
// justifies running degraded instead of refusing the open.
func BenchmarkDegradedRead(b *testing.B) {
	const latency = 100 * time.Microsecond
	arr := &prog.Array{Name: "A", BlockRows: 8, BlockCols: 8, GridRows: 8, GridCols: 8}
	for _, mode := range []string{"healthy", "degraded"} {
		b.Run("mode="+mode, func(b *testing.B) {
			sm, err := OpenSharded(ShardDirs(b.TempDir(), 4), ShardedOptions{Replicas: 2})
			if err != nil {
				b.Fatal(err)
			}
			defer sm.Close()
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
			if mode == "degraded" {
				if err := sm.DegradeShard(1); err != nil {
					b.Fatal(err)
				}
			}
			sm.SetLatency(latency, 0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for r := int64(0); r < int64(arr.GridRows); r++ {
					for c := int64(0); c < int64(arr.GridCols); c++ {
						if _, err := sm.ReadBlock("A", r, c); err != nil {
							b.Fatal(err)
						}
					}
				}
			}
		})
	}
}
