package storage

import (
	"strconv"
	"time"

	"riotshare/internal/telemetry"
)

// RegisterMetrics installs per-shard read/write latency histograms,
// observed on every shard-level request (including replica fallbacks).
// The store's counters are not registered here: they are ShardStats
// fields, which the server renders.
// Must be called before the store takes traffic — the histogram
// slices are installed without locking, on the assumption that no
// ReadBlock/WriteBlock is in flight yet. No-op when reg is nil.
func (sm *ShardedManager) RegisterMetrics(reg *telemetry.Registry) {
	if sm == nil || reg == nil {
		return
	}
	rl := make([]*telemetry.Histogram, len(sm.shards))
	wl := make([]*telemetry.Histogram, len(sm.shards))
	for i := range sm.shards {
		lbl := telemetry.L("shard", strconv.Itoa(i))
		rl[i] = reg.Histogram("riotshare_shard_read_seconds",
			"Latency of block reads per shard, replica fallbacks included.", nil, lbl)
		wl[i] = reg.Histogram("riotshare_shard_write_seconds",
			"Latency of block writes per shard, replica mirrors included.", nil, lbl)
	}
	sm.readLat, sm.writeLat = rl, wl
}

// observeSince records one shard-level operation latency when the
// store is instrumented; free (one nil slice check) otherwise.
func observeSince(hists []*telemetry.Histogram, i int, t0 time.Time) {
	if hists == nil {
		return
	}
	hists[i].ObserveDuration(time.Since(t0))
}
