package main

import (
	"context"
	"time"

	"riotshare/internal/storage"
	"riotshare/internal/telemetry"
)

// perLayerMetrics are the metrics of single layers (layer = module name),
// in the order of the README's interaction table. Those marked "count"
// come from deterministic code paths of the 1-client traced pass or the
// sequential probes and are expected to repeat exactly between runs.
var perLayerMetrics = append([]metricDef{
	// planner, as the server reports it
	{"server.planning_ms_p50", "ms", "lower", 0},
	{"server.plan_cache_hit_rate", "frac", "higher", 0},
	{"server.plan_tier_cache_count", "count", "higher", 0},
	{"server.plan_tier_greedy_count", "count", "lower", 0},
	{"server.plan_tier_full_count", "count", "lower", 0},
	// planner, probed layer by layer
	{"core.greedy_ms_p50", "ms", "lower", 0},
	{"core.greedy_ms_p95", "ms", "lower", 0},
	{"deps.analyze_ms_p50", "ms", "lower", 0},
	{"deps.shares_per_program", "count", "lower", 0},
	{"sched.findschedule_calls_per_plan", "count", "lower", 0},
	{"codegen.lower_ms_p50", "ms", "lower", 0},
	{"codegen.timeline_events_per_plan", "count", "lower", 0},
	{"cost.evaluate_ms_p50", "ms", "lower", 0},
	{"core.full_ms_p50", "ms", "lower", 0},
	{"core.greedy_vs_full_cost_ratio_max", "ratio", "lower", 0},
	// admission
	{"server.admission_wait_ms_p50", "ms", "lower", 0},
	{"server.admission_wait_ms_p95", "ms", "lower", 0},
	{"govern.queue_wait_ms_p95", "ms", "lower", 0},
	{"govern.queued_max", "count", "lower", 0},
	// front end
	{"server.http_overhead_ms_p50", "ms", "lower", 0},
	{"server.result_fetch_ms_p50", "ms", "lower", 0},
	{"server.input_fill_ms_p50", "ms", "lower", 0},
	// execution
	{"server.exec_ms_p50", "ms", "lower", 0},
	{"exec.run_ms_p50", "ms", "lower", 0},
	{"exec.self_ms_p50", "ms", "lower", 0},
	{"exec.kernel_cpu_ms_per_query", "ms", "lower", 0},
	{"exec.peak_memory_mb", "MiB", "lower", 0},
	{"blas.gemm_128_us", "us", "lower", 0},
	{"exec.prefetch_issued_per_query", "1/query", "higher", 0},
	{"exec.prefetch_inline_per_query", "1/query", "lower", 0},
	// buffer pool
	{"buffer.hit_rate", "frac", "higher", 0},
	{"buffer.evictions_per_query", "1/query", "lower", 0},
	{"buffer.writebacks_per_query", "1/query", "lower", 0},
	{"buffer.peak_mb", "MiB", "lower", 0},
	{"buffer.acquire_us_p50", "us", "lower", 0},
	{"buffer.acquire_us_p95", "us", "lower", 0},
	{"buffer.put_us_p50", "us", "lower", 0},
	{"buffer.self_ms_per_query", "ms", "lower", 0},
	// storage
	{"storage.read_us_p50", "us", "lower", 0},
	{"storage.read_us_p95", "us", "lower", 0},
	{"storage.write_us_p50", "us", "lower", 0},
	{"storage.busy_ms_per_query", "ms", "lower", 0},
	{"storage.read_reqs_per_query", "1/query", "lower", 0},
	{"storage.write_reqs_per_query", "1/query", "lower", 0},
	{"storage.shard_read_imbalance", "ratio", "lower", 0},
	{"storage.write_amplification", "ratio", "lower", 0},
	{"storage.degraded_reads", "count", "lower", 0},
	{"storage.remote_retries", "count", "lower", 0},
	{"storage.remote_timeouts", "count", "lower", 0},
	{"storage.remote_dials", "count", "lower", 0},
	{"blockd.read_rtt_us_p50", "us", "lower", 0},
	{"blockd.write_rtt_us_p50", "us", "lower", 0},
	// streamed delivery
	{"server.stream_frames_per_query", "1/query", "lower", 0},
	{"server.stream_bytes_per_query", "B", "lower", 0},
	// the cost of looking
	{"trace.overhead_frac", "frac", "lower", 0},
}, unboundedEndToEnd...)

// tracedResult is the traced pass with the per-layer metrics drawn from it.
type tracedResult struct {
	pass   *pass
	layers *results
}

// traced produces the per-layer metrics: a 1-client untraced reference
// over a quarter of the requests, the same quarter again with tracing on
// (the client fetches /trace for every query and brackets the phase with
// /stats and /metrics), and the layer probes.
func (r *runner) traced() (*tracedResult, error) {
	n := len(r.reqs) / tracedDivisor
	ref, err := r.measure(n, 1, false)
	if err != nil {
		return nil, err
	}
	p, err := r.measure(n, 1, true)
	if err != nil {
		return nil, err
	}
	d, err := r.probe(context.Background())
	if err != nil {
		return nil, err
	}
	return &tracedResult{pass: p, layers: layerMetrics(ref, p, d)}, nil
}

// child returns the named direct child span, or nil.
func child(root *telemetry.Span, name string) *telemetry.Span {
	for _, c := range root.Children {
		if c.Name == name {
			return c
		}
	}
	return nil
}

func okLatencies(p *pass) []float64 {
	var out []float64
	for _, s := range p.samples {
		if s.err == nil {
			out = append(out, ms(s.latency))
		}
	}
	return out
}

// layerMetrics reduces the traced pass (server surface) and the probes to
// the per-layer metric list.
func layerMetrics(ref, p *pass, d *probeData) *results {
	res := newResults()
	put := func(name string, v float64, n int, detail string) {
		res.put(defByName(perLayerMetrics, name), v, n, detail)
	}
	p50 := func(name string, xs []float64) { put(name, median(xs), len(xs), "") }
	p95 := func(name string, xs []float64) {
		v, used := tail(xs, 0.95)
		put(name, v, len(xs), quantileDetail(used, 0.95))
	}

	// (a) The server's public surface: span trees, /stats, /metrics.
	phases := map[string][]float64{}
	var overhead []float64
	ok := 0
	for _, s := range p.samples {
		if s.err != nil || s.root == nil {
			continue
		}
		ok++
		for _, c := range s.root.Children {
			phases[c.Name] = append(phases[c.Name], ms(c.Duration()))
		}
		// Server-side time behind the client's latency: the whole query
		// span, or on a streamed workload query start → exec end (the last
		// block goes on the wire as exec finishes; result-fetch follows it).
		serverSide := s.root.Duration()
		if ex := child(s.root, "exec"); p.workload.stream && ex != nil {
			serverSide = time.Duration(ex.StartUnixNano-s.root.StartUnixNano) + ex.Duration()
		}
		overhead = append(overhead, ms(s.latency-serverSide))
	}
	perQuery := func(delta float64) float64 {
		if ok == 0 {
			return 0
		}
		return delta / float64(ok)
	}
	p50("server.planning_ms_p50", phases["planning"])
	hits := float64(p.after.PlanCacheHits - p.before.PlanCacheHits)
	misses := float64(p.after.PlanCacheMisses - p.before.PlanCacheMisses)
	rate := 0.0
	if hits+misses > 0 {
		rate = hits / (hits + misses)
	}
	put("server.plan_cache_hit_rate", rate, int(hits+misses), "")
	for _, tier := range []string{"cache", "greedy", "full"} {
		n := p.after.PlanningTiers[tier].Count - p.before.PlanningTiers[tier].Count
		put("server.plan_tier_"+tier+"_count", float64(n), ok, "")
	}
	p50("server.admission_wait_ms_p50", phases["admission-wait"])
	p95("server.admission_wait_ms_p95", phases["admission-wait"])
	qw := 0.0
	for _, ts := range p.after.Tenants {
		if ts.QueueWaitP95Ms > qw {
			qw = ts.QueueWaitP95Ms
		}
	}
	put("govern.queue_wait_ms_p95", qw, len(p.after.Tenants), "max over tenants")
	put("govern.queued_max", float64(p.queuedMax), ok, "10 Hz /stats poll")
	p50("server.http_overhead_ms_p50", overhead)
	p50("server.result_fetch_ms_p50", phases["result-fetch"])
	p50("server.input_fill_ms_p50", phases["input-fill"])
	p50("server.exec_ms_p50", phases["exec"])
	mdelta := func(name string) float64 { return p.metricsAfter[name] - p.metricsBefore[name] }
	put("exec.prefetch_issued_per_query", perQuery(mdelta("riotshare_prefetch_issued_total")), ok, "")
	put("exec.prefetch_inline_per_query", perQuery(mdelta("riotshare_prefetch_inline_total")), ok, "")

	pb, pa := p.before.Pool, p.after.Pool
	acq := float64(pa.Hits - pb.Hits + pa.Misses - pb.Misses)
	hr := 0.0
	if acq > 0 {
		hr = float64(pa.Hits-pb.Hits) / acq
	}
	put("buffer.hit_rate", hr, int(acq), "")
	put("buffer.evictions_per_query", perQuery(float64(pa.Evictions-pb.Evictions)), ok, "")
	put("buffer.writebacks_per_query", perQuery(float64(pa.Writebacks-pb.Writebacks)), ok, "")
	put("buffer.peak_mb", float64(pa.PeakBytes)/mib, 1, "")
	put("storage.read_reqs_per_query", perQuery(float64(p.after.Store.ReadReqs-p.before.Store.ReadReqs)), ok, "")
	put("storage.write_reqs_per_query", perQuery(float64(p.after.Store.WriteReqs-p.before.Store.WriteReqs)), ok, "")
	put("storage.shard_read_imbalance", shardImbalance(p.before.Shards, p.after.Shards), len(p.after.Shards), "max ÷ mean of per-shard reads")
	put("storage.degraded_reads", float64(p.after.DegradedReads-p.before.DegradedReads), ok, "")
	put("storage.remote_retries", mdelta("riotshare_remote_retries_total"), ok, "")
	put("storage.remote_timeouts", mdelta("riotshare_remote_timeouts_total"), ok, "")
	// Connections are dialed while the store opens and warms up, so the
	// lifetime count is the meaningful one.
	put("storage.remote_dials", p.metricsAfter["riotshare_remote_dials_total"], ok, "since the host started")
	put("server.stream_frames_per_query", perQuery(float64(p.after.Streams.Blocks-p.before.Streams.Blocks)), ok, "")
	put("server.stream_bytes_per_query", perQuery(float64(p.after.Streams.Bytes-p.before.Streams.Bytes)), ok, "")

	// (b) Layer probes.
	p50("core.greedy_ms_p50", d.greedyMs)
	p95("core.greedy_ms_p95", d.greedyMs)
	p50("deps.analyze_ms_p50", d.analyzeMs)
	put("deps.shares_per_program", mean(d.shares), len(d.shares), "mean")
	put("sched.findschedule_calls_per_plan", mean(d.findScheduleCalls), len(d.findScheduleCalls), "mean")
	p50("codegen.lower_ms_p50", d.lowerMs)
	put("codegen.timeline_events_per_plan", mean(d.timelineEvents), len(d.timelineEvents), "mean")
	p50("cost.evaluate_ms_p50", d.evaluateMs)
	p50("core.full_ms_p50", d.fullMs)
	put("core.greedy_vs_full_cost_ratio_max", d.greedyVsFullMax, len(d.fullMs), "")

	self := selfTimes(d.spans)
	byName := map[string][]float64{} // durations, µs
	selfSum := map[string]float64{}  // self time, ms
	busySum := map[string]float64{}  // duration, ms
	var execRunMs, execSelfMs []float64
	for _, s := range d.spans {
		byName[s.Name] = append(byName[s.Name], us(s.duration()))
		selfSum[s.Name] += ms(self[s.ID])
		busySum[s.Name] += ms(s.duration())
		if s.Name == "exec.run" {
			execRunMs = append(execRunMs, ms(s.duration()))
			execSelfMs = append(execSelfMs, ms(self[s.ID]))
		}
	}
	perReplay := func(v float64) float64 {
		if d.queries == 0 {
			return 0
		}
		return v / float64(d.queries)
	}
	p50("exec.run_ms_p50", execRunMs)
	p50("exec.self_ms_p50", execSelfMs)
	put("exec.kernel_cpu_ms_per_query", mean(d.kernelCPUMs), len(d.kernelCPUMs), "mean")
	put("exec.peak_memory_mb", float64(d.peakMemBytes)/mib, d.queries, "max logical working set")
	put("blas.gemm_128_us", d.gemm128Us, 15, "median")
	p50("buffer.acquire_us_p50", byName["buffer.acquire"])
	p95("buffer.acquire_us_p95", byName["buffer.acquire"])
	p50("buffer.put_us_p50", byName["buffer.put"])
	put("buffer.self_ms_per_query",
		perReplay(selfSum["buffer.acquire"]+selfSum["buffer.put"]+selfSum["buffer.flush"]), d.queries, "")
	p50("storage.read_us_p50", byName["storage.read"])
	p95("storage.read_us_p95", byName["storage.read"])
	p50("storage.write_us_p50", byName["storage.write"])
	put("storage.busy_ms_per_query", perReplay(busySum["storage.read"]+busySum["storage.write"]), d.queries, "")
	amp := 0.0
	if d.putBytes > 0 {
		amp = float64(d.physWriteBytes) / float64(d.putBytes)
	}
	put("storage.write_amplification", amp, d.queries, "physical ÷ put bytes")
	p50("blockd.read_rtt_us_p50", d.readRTTUs)
	p50("blockd.write_rtt_us_p50", d.writeRTTUs)

	refP50, tracedP50 := median(okLatencies(ref)), median(okLatencies(p))
	over := 0.0
	if refP50 > 0 {
		over = tracedP50/refP50 - 1
	}
	put("trace.overhead_frac", over, ok, "traced ÷ untraced query_p50_ms − 1, both 1 client")

	// The end-to-end quantities that cannot be bounded metrics.
	e := endToEnd(p)
	for _, def := range unboundedEndToEnd {
		v := e.by[def.name]
		res.put(def, v.v, v.n, v.detail)
	}
	return res
}

// shardImbalance is max ÷ mean of the per-shard read requests of the
// measured phase (1 = even, or unsharded).
func shardImbalance(before, after []storage.ShardStats) float64 {
	if len(after) == 0 || len(before) != len(after) {
		return 1
	}
	var max, sum float64
	for i := range after {
		d := float64(after[i].ReadReqs - before[i].ReadReqs)
		sum += d
		if d > max {
			max = d
		}
	}
	if sum == 0 {
		return 1
	}
	return max / (sum / float64(len(after)))
}
