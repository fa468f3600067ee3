package storage

import (
	"strconv"
	"time"

	"riotshare/internal/telemetry"
)

// RegisterMetrics attaches telemetry to the sharded store: per-shard
// read/write latency histograms observed on every shard-level request
// (including replica fallbacks), plus a scrape-time collector over one
// ShardStats snapshot (per-shard series and the all-shard
// riotshare_store_* totals) and each remote client's dial/retry/timeout
// counters.
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

	reg.Collect(func(e *telemetry.Emit) {
		// One snapshot per scrape (one stats round trip per remote shard)
		// feeds both the per-shard series and the all-shard totals.
		var total Stats
		for i, st := range sm.ShardStats() {
			total.ReadReqs += st.ReadReqs
			total.ReadBytes += st.ReadBytes
			total.WriteReqs += st.WriteReqs
			total.WriteBytes += st.WriteBytes
			lbl := telemetry.L("shard", strconv.Itoa(i))
			spec := telemetry.L("spec", st.Dir)
			e.Counter("riotshare_shard_read_reqs_total", "Physical block reads served per shard.", float64(st.ReadReqs), lbl, spec)
			e.Counter("riotshare_shard_read_bytes_total", "Bytes read per shard.", float64(st.ReadBytes), lbl, spec)
			e.Counter("riotshare_shard_write_reqs_total", "Physical block writes per shard.", float64(st.WriteReqs), lbl, spec)
			e.Counter("riotshare_shard_write_bytes_total", "Bytes written per shard.", float64(st.WriteBytes), lbl, spec)
			e.Counter("riotshare_shard_degraded_reads_total",
				"Reads whose primary is this shard that a replica served instead.", float64(st.DegradedReads), lbl, spec)
			degraded := 0.0
			if st.Degraded {
				degraded = 1
			}
			e.Gauge("riotshare_shard_degraded", "1 when the shard is offline and reads fall back to replicas.", degraded, lbl, spec)
		}
		e.Counter("riotshare_store_read_reqs_total", "Physical block reads, all shards.", float64(total.ReadReqs))
		e.Counter("riotshare_store_read_bytes_total", "Bytes read, all shards.", float64(total.ReadBytes))
		e.Counter("riotshare_store_write_reqs_total", "Physical block writes, all shards.", float64(total.WriteReqs))
		e.Counter("riotshare_store_write_bytes_total", "Bytes written, all shards.", float64(total.WriteBytes))
		for i, sd := range sm.shards {
			rs, ok := sd.(*RemoteShard)
			if !ok {
				continue
			}
			st := rs.RemoteStats()
			lbl := telemetry.L("shard", strconv.Itoa(i))
			addr := telemetry.L("addr", sm.specs[i])
			e.Counter("riotshare_remote_dials_total", "TCP connections established to riotblockd servers.", float64(st.Dials), lbl, addr)
			e.Counter("riotshare_remote_retries_total", "Remote attempts re-issued after a transient failure.", float64(st.Retries), lbl, addr)
			e.Counter("riotshare_remote_timeouts_total", "Remote attempts that exceeded the op timeout.", float64(st.Timeouts), lbl, addr)
		}
	})
}

// observeSince records one shard-level operation latency when the
// store is instrumented; free (one nil slice check) otherwise.
func observeSince(hists []*telemetry.Histogram, i int, t0 time.Time) {
	if hists == nil {
		return
	}
	hists[i].ObserveDuration(time.Since(t0))
}
