package buffer

import (
	"riotshare/internal/telemetry"
)

// RegisterMetrics registers a scrape-time collector that samples the
// pool's Stats into the registry: global hit/miss/eviction counters,
// occupancy gauges, and per-tenant hit/miss/byte breakdowns. The pool
// hot path carries no extra instrumentation — everything is derived
// from the existing Stats snapshot at scrape time. No-op when reg is
// nil.
func (p *Pool) RegisterMetrics(reg *telemetry.Registry) {
	if p == nil {
		return
	}
	reg.Collect(func(e *telemetry.Emit) {
		st := p.Stats()
		e.Counter("riotshare_pool_hits_total", "Pool acquisitions served from cache.", float64(st.Hits))
		e.Counter("riotshare_pool_misses_total", "Pool acquisitions that read from storage.", float64(st.Misses))
		e.Counter("riotshare_pool_puts_total", "Blocks installed into the pool by writes.", float64(st.Puts))
		e.Counter("riotshare_pool_evictions_total", "Frames evicted by the replacement policy.", float64(st.Evictions))
		e.Counter("riotshare_pool_writebacks_total", "Dirty frames written back to storage.", float64(st.Writebacks))
		e.Counter("riotshare_pool_discards_total", "Dirty frames dropped without write-back.", float64(st.Discards))
		e.Gauge("riotshare_pool_bytes_cached", "Bytes currently resident in the pool.", float64(st.BytesCached))
		e.Gauge("riotshare_pool_bytes_cap", "Pool soft byte capacity.", float64(st.BytesCap))
		e.Gauge("riotshare_pool_frames", "Resident frames in the pool.", float64(st.Frames))
		e.Gauge("riotshare_pool_pinned_frames", "Currently pinned frames.", float64(st.PinnedFrames))
		e.Gauge("riotshare_pool_hit_rate", "Pool hit rate hits/(hits+misses), 0 when idle.", st.HitRate())
		for name, ts := range st.Tenants {
			lbl := telemetry.L("tenant", name)
			e.Counter("riotshare_pool_tenant_hits_total", "Per-tenant pool hits.", float64(ts.Hits), lbl)
			e.Counter("riotshare_pool_tenant_misses_total", "Per-tenant pool misses.", float64(ts.Misses), lbl)
			e.Gauge("riotshare_pool_tenant_bytes_cached", "Per-tenant resident bytes.", float64(ts.BytesCached), lbl)
		}
	})
}
