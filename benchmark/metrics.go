package main

import (
	"sort"
	"time"
)

// metricDef names one metric of the benchmark with its unit and which
// direction is better; bound is the share of the parent's median by which an
// end-to-end metric may worsen before a change counts as a regression
// (per-layer metrics have none). BENCHMARK.json is generated from these
// tables (-manifest) and a test keeps the two in step.
type metricDef struct {
	name, unit, better string
	bound              float64
}

// endToEndMetrics are what a user of the service sees, on every workload.
// Four more end-to-end quantities are measured and printed but are not
// bounded metrics; they are listed with the per-layer metrics. The
// benchmark contract wants every bounded metric non-zero on every workload,
// which rules out failed_frac (always 0; the result line's failed/attempted
// carries it) and first_block_ms_p50 and stream_mb_per_s (remote-stream
// only). query_p95_ms is demoted because its same-code spread passes a tenth:
// the tail amplifies the machine's slow stretches two- to threefold (on
// remote-stream 6 % between ten runs on a quiet machine, 17–33 % on a
// disturbed one), so a bound the contract allows would reject unchanged code.
var endToEndMetrics = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"query_p50_ms", "ms", "lower", 0.25},
	{"queries_per_s", "1/s", "higher", 0.25},
	{"phys_read_mb_per_query", "MiB", "lower", 0.15},
	{"phys_write_mb_per_query", "MiB", "lower", 0.05},
	{"plan_io_mb_per_query", "MiB", "lower", 0.01},
	{"peak_rss_mb", "MiB", "lower", 0.15},
}

// unboundedEndToEnd are the end-to-end quantities demoted to the per-layer
// list (see endToEndMetrics).
var unboundedEndToEnd = []metricDef{
	{"query_p95_ms", "ms", "lower", 0},
	{"failed_frac", "frac", "lower", 0},
	{"first_block_ms_p50", "ms", "lower", 0},
	{"stream_mb_per_s", "MiB/s", "higher", 0},
}

// value is one measured metric with the number of samples behind it.
type value struct {
	def    metricDef
	v      float64
	n      int
	detail string // e.g. the percentile actually reported when the sample is short
}

// results is an ordered metric → value list.
type results struct {
	order []string
	by    map[string]value
}

func newResults() *results { return &results{by: map[string]value{}} }

func (r *results) put(def metricDef, v float64, n int, detail string) {
	if _, ok := r.by[def.name]; !ok {
		r.order = append(r.order, def.name)
	}
	r.by[def.name] = value{def: def, v: v, n: n, detail: detail}
}

func defByName(defs []metricDef, name string) metricDef {
	for _, d := range defs {
		if d.name == name {
			return d
		}
	}
	panic("benchmark: undefined metric " + name)
}

// quietSlices is how many of every `rounds` slices the timing metrics keep.
const quietSlices = 6

// quiet returns the successful samples of the pass's quieter slices and
// the wall time those slices took. The request list is `rounds` slices of
// identical work (workload.generate), so a slice that took longer than its
// siblings was slowed from outside: on a shared machine whole seconds run
// 20 % slow at a time. The timing metrics are computed over the
// quietSlices fastest of every `rounds` slices; counts and volumes use
// every sample.
func (p *pass) quiet() (kept []sample, wall time.Duration) {
	type slice struct {
		samples    []sample
		start, end time.Time
	}
	var slices []*slice
	for _, s := range p.samples {
		k := s.index * rounds / p.n
		for len(slices) <= k {
			slices = append(slices, &slice{})
		}
		sl := slices[k]
		if end := s.start.Add(s.latency); len(sl.samples) == 0 {
			sl.start, sl.end = s.start, end
		} else {
			if s.start.Before(sl.start) {
				sl.start = s.start
			}
			if end.After(sl.end) {
				sl.end = end
			}
		}
		sl.samples = append(sl.samples, s)
	}
	var full []*slice
	for _, sl := range slices {
		if len(sl.samples) > 0 {
			full = append(full, sl)
		}
	}
	// Slices hold the same work to within one request; per-request time
	// ranks them fairly even when the overrun guard cut the last one short.
	perRequest := func(sl *slice) float64 { return float64(sl.end.Sub(sl.start)) / float64(len(sl.samples)) }
	sort.SliceStable(full, func(a, b int) bool { return perRequest(full[a]) < perRequest(full[b]) })
	keep := (len(full)*quietSlices + rounds - 1) / rounds
	for _, sl := range full[:keep] {
		wall += sl.end.Sub(sl.start)
		for _, s := range sl.samples {
			if s.err == nil {
				kept = append(kept, s)
			}
		}
	}
	return kept, wall
}

// endToEnd computes the end-to-end metrics of an untraced pass (the
// bounded ones and the three demoted ones).
func endToEnd(p *pass) *results {
	r := newResults()
	e2e := func(name string) metricDef { return defByName(endToEndMetrics, name) }
	var lat, first, rate []float64
	kept, wall := p.quiet()
	for _, s := range kept {
		lat = append(lat, ms(s.latency))
		if p.workload.stream {
			first = append(first, ms(s.firstBlock))
			rate = append(rate, float64(s.streamBytes)/mib/s.streamSpan.Seconds())
		}
	}
	var planIO int64
	ok := 0
	for _, s := range p.samples {
		if s.err == nil {
			ok++
			planIO += s.planIOBytes
		}
	}
	perQuery := func(bytes int64) float64 {
		if ok == 0 {
			return 0
		}
		return float64(bytes) / mib / float64(ok)
	}
	r.put(e2e("setup_s"), median(p.setups), len(p.setups), "")
	r.put(e2e("query_p50_ms"), median(lat), len(lat), "")
	qps := 0.0
	if wall > 0 {
		qps = float64(len(lat)) / wall.Seconds()
	}
	r.put(e2e("queries_per_s"), qps, len(lat), "")
	r.put(e2e("phys_read_mb_per_query"), perQuery(p.after.Store.ReadBytes-p.before.Store.ReadBytes), ok, "")
	r.put(e2e("phys_write_mb_per_query"), perQuery(p.after.Store.WriteBytes-p.before.Store.WriteBytes), ok, "")
	r.put(e2e("plan_io_mb_per_query"), perQuery(planIO), ok, "")
	r.put(e2e("peak_rss_mb"), float64(p.maxRSSKiB)/1024, 1, "")
	demoted := func(name string) metricDef { return defByName(unboundedEndToEnd, name) }
	p95, used := tail(lat, 0.95)
	r.put(demoted("query_p95_ms"), p95, len(lat), quantileDetail(used, 0.95))
	failedFrac := 0.0
	if len(p.samples) > 0 {
		failedFrac = float64(p.failed()) / float64(len(p.samples))
	}
	r.put(demoted("failed_frac"), failedFrac, len(p.samples), "")
	r.put(demoted("first_block_ms_p50"), median(first), len(first), "")
	r.put(demoted("stream_mb_per_s"), median(rate), len(rate), "")
	return r
}
