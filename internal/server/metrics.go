package server

import (
	"strconv"

	"riotshare/internal/telemetry"
)

// The unlabeled planning histogram and its per-tier series share one
// family.
const (
	planningFamily = "riotshare_planning_seconds"
	planningHelp   = "Latency of plan-cache lookup or planning per query."
)

// tierHistogram returns the planner tier's latency series, registering it
// the first time the tier serves a query. Stats reads s.tierHists instead,
// so a snapshot never registers an empty series.
func (s *Server) tierHistogram(tier string) *telemetry.Histogram {
	s.planMu.Lock()
	defer s.planMu.Unlock()
	h := s.tierHists[tier]
	if h == nil {
		h = s.reg.Histogram(planningFamily, planningHelp, nil, telemetry.L("tier", tier))
		s.tierHists[tier] = h
	}
	return h
}

// admitWaitHistogram returns the tenant's admission-wait series,
// registering it at the tenant's first admission. Stats reads the
// tenant's counters instead, so a tenant whose queries never reached
// admission has no series.
func (s *Server) admitWaitHistogram(tenant string) *telemetry.Histogram {
	s.tenantMu.Lock()
	defer s.tenantMu.Unlock()
	tc := s.tenantLocked(tenant)
	if tc.admitWait == nil {
		tc.admitWait = s.reg.Histogram("riotshare_admission_wait_seconds",
			"Admission queue wait per tenant (Admit call to grant).", nil, telemetry.L("tenant", tenant))
	}
	return tc.admitWait
}

// emit renders the snapshot as the /metrics counter and gauge families:
// every one of them is a field of Stats, so a scrape and GET /stats report
// the same numbers from the same kind of snapshot. Latency histograms are
// registry handles and are not emitted here.
func (st *Stats) emit(e *telemetry.Emit) {
	n := func(v int64) float64 { return float64(v) }

	e.Gauge("riotshare_queries_running", "Queries currently executing.", float64(st.Running))
	e.Gauge("riotshare_queries_queued", "Queries waiting for admission.", float64(st.Queued))
	e.Counter("riotshare_queries_submitted_total", "Queries accepted by Submit.", n(st.Submitted))
	e.Counter("riotshare_queries_finished_total", "Queries finished (done or failed).", n(st.Finished))
	e.Counter("riotshare_slow_queries_total", "Queries whose wall time met the slow-query threshold.", n(st.SlowQueries))
	e.Counter("riotshare_plan_cache_hits_total", "Plan cache hits.", n(st.PlanCacheHits))
	e.Counter("riotshare_plan_cache_misses_total", "Plan cache misses (plans computed).", n(st.PlanCacheMisses))
	e.Gauge("riotshare_plan_cache_entries", "Plan tables resident in the bounded cache.", float64(st.PlanCacheSize))
	e.Counter("riotshare_plan_cache_evictions_total", "Plan cache entries retired by the LRU bound.", n(st.PlanCacheEvictions))
	e.Counter("riotshare_plan_shape_hits_total", "Plan fills that found their program shape prepared.", n(st.PlanShapeHits))
	e.Counter("riotshare_plan_shape_misses_total", "Plan fills that prepared their program shape.", n(st.PlanShapeMisses))
	e.Gauge("riotshare_plan_shape_entries", "Program shapes resident in the bounded shape cache.", float64(st.PlanShapeEntries))
	e.Counter("riotshare_input_fills_total", "Shared inputs synthesized and written.", n(st.InputFills))
	e.Counter("riotshare_input_fills_skipped_total", "Shared inputs served from the persisted catalog.", n(st.InputFillsSkipped))
	e.Counter("riotshare_prefetch_issued_total", "Prefetchable reads issued ahead of use by the async prefetcher.", n(st.PrefetchIssued))
	e.Counter("riotshare_prefetch_inline_total", "Prefetchable reads a consumer claimed inline (prefetch too late).", n(st.PrefetchInline))
	e.Counter("riotshare_result_read_blocks_total", "Output blocks the result summary read back because no final write summed them.", n(st.ResultReadBlocks))
	st.Process.Emit(e, "riotshare")

	p := &st.Pool
	e.Counter("riotshare_pool_hits_total", "Pool acquisitions served from cache.", n(p.Hits))
	e.Counter("riotshare_pool_misses_total", "Pool acquisitions that read from storage.", n(p.Misses))
	e.Counter("riotshare_pool_puts_total", "Blocks installed into the pool by writes.", n(p.Puts))
	e.Counter("riotshare_pool_evictions_total", "Frames evicted by the replacement policy.", n(p.Evictions))
	e.Counter("riotshare_pool_writebacks_total", "Dirty frames written back to storage.", n(p.Writebacks))
	e.Counter("riotshare_pool_discards_total", "Dirty frames dropped without write-back.", n(p.Discards))
	const writebackHelp = "Time spent writing dirty frames back to storage, by path (eviction or release)."
	e.Counter("riotshare_pool_writeback_seconds_total", writebackHelp, p.EvictWriteTime.Seconds(), telemetry.L("path", "evict"))
	e.Counter("riotshare_pool_writeback_seconds_total", writebackHelp, p.ReleaseWriteTime.Seconds(), telemetry.L("path", "release"))
	e.Gauge("riotshare_pool_bytes_cached", "Bytes currently resident in the pool.", n(p.BytesCached))
	e.Gauge("riotshare_pool_bytes_cap", "Pool soft byte capacity.", n(p.BytesCap))
	e.Gauge("riotshare_pool_frames", "Resident frames in the pool.", float64(p.Frames))
	e.Gauge("riotshare_pool_pinned_frames", "Currently pinned frames.", float64(p.PinnedFrames))
	e.Gauge("riotshare_pool_hit_rate", "Pool hit rate hits/(hits+misses), 0 when idle.", p.HitRate())
	for name, ts := range p.Tenants {
		lbl := telemetry.L("tenant", name)
		e.Counter("riotshare_pool_tenant_hits_total", "Per-tenant pool hits.", n(ts.Hits), lbl)
		e.Counter("riotshare_pool_tenant_misses_total", "Per-tenant pool misses.", n(ts.Misses), lbl)
		e.Gauge("riotshare_pool_tenant_bytes_cached", "Per-tenant resident bytes.", n(ts.BytesCached), lbl)
	}

	e.Counter("riotshare_store_read_reqs_total", "Physical block reads, all shards.", n(st.Store.ReadReqs))
	e.Counter("riotshare_store_read_bytes_total", "Bytes read, all shards.", n(st.Store.ReadBytes))
	e.Counter("riotshare_store_write_reqs_total", "Physical block writes, all shards.", n(st.Store.WriteReqs))
	e.Counter("riotshare_store_write_bytes_total", "Bytes written, all shards.", n(st.Store.WriteBytes))
	for i, sh := range st.Shards {
		lbl := telemetry.L("shard", strconv.Itoa(i))
		spec := telemetry.L("spec", sh.Dir)
		e.Counter("riotshare_shard_read_reqs_total", "Physical block reads served per shard.", n(sh.ReadReqs), lbl, spec)
		e.Counter("riotshare_shard_read_bytes_total", "Bytes read per shard.", n(sh.ReadBytes), lbl, spec)
		e.Counter("riotshare_shard_write_reqs_total", "Physical block writes per shard.", n(sh.WriteReqs), lbl, spec)
		e.Counter("riotshare_shard_write_bytes_total", "Bytes written per shard.", n(sh.WriteBytes), lbl, spec)
		e.Counter("riotshare_shard_degraded_reads_total",
			"Reads whose primary is this shard that a replica served instead.", n(sh.DegradedReads), lbl, spec)
		degraded := 0.0
		if sh.Degraded {
			degraded = 1
		}
		e.Gauge("riotshare_shard_degraded", "1 when the shard is offline and reads fall back to replicas.", degraded, lbl, spec)
		if r := sh.Remote; r != nil {
			addr := telemetry.L("addr", sh.Dir)
			e.Counter("riotshare_remote_dials_total", "TCP connections established to riotblockd servers.", n(r.Dials), lbl, addr)
			e.Counter("riotshare_remote_retries_total", "Remote attempts re-issued after a transient failure.", n(r.Retries), lbl, addr)
			e.Counter("riotshare_remote_timeouts_total", "Remote attempts that exceeded the op timeout.", n(r.Timeouts), lbl, addr)
			e.Counter("riotshare_remote_write_lock_wait_seconds_total",
				"Time requests waited for a connection's write lock while another request was being written.", r.WriteLockWait.Seconds(), lbl, addr)
			e.Gauge("riotshare_remote_pending_max", "Deepest queue of requests awaiting replies seen on one connection.", n(r.PendingMax), lbl, addr)
		}
	}

	ss := &st.Streams
	e.Gauge("riotshare_streams_active", "Result streams currently on the wire.", float64(ss.Active))
	e.Counter("riotshare_stream_blocks_total", "Output blocks delivered over streamed results.", n(ss.Blocks))
	e.Counter("riotshare_stream_bytes_total", "Output payload bytes delivered over streamed results.", n(ss.Bytes))
	for _, o := range []struct {
		outcome string
		count   int64
	}{{"done", ss.Completed}, {"canceled", ss.Canceled}, {"error", ss.Errors}} {
		e.Counter("riotshare_streams_total", "Finished result streams by outcome.", n(o.count), telemetry.L("outcome", o.outcome))
	}
}
