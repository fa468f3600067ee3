package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"riotshare/internal/blockd"
	"riotshare/internal/prog"
	"riotshare/internal/storage"
	"riotshare/internal/telemetry"
)

// runSmall submits the small program and waits for it, returning the id.
func runSmall(t *testing.T, s *Server) string {
	t.Helper()
	id, err := s.Submit(Request{Program: "addmul-small", Tenant: "acme"})
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.Wait(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone {
		t.Fatalf("query state = %s, err %q", st.State, st.Err)
	}
	return id
}

// queryTrace returns the completed span tree on a remembered query's
// record.
func queryTrace(t *testing.T, s *Server, id string) *telemetry.Span {
	t.Helper()
	q, err := s.lookup(id)
	if err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if q.trace == nil {
		t.Fatalf("no trace on the record of %s", id)
	}
	return q.trace
}

// TestQueryTraceCompleteness asserts every query phase appears exactly
// once in the span tree and that the phases account for at least 90% of
// the query's wall time — the acceptance bar for the tracer.
func TestQueryTraceCompleteness(t *testing.T) {
	s, _ := newHTTPServer(t)
	id := runSmall(t, s)

	root := queryTrace(t, s, id)
	if root.Name != "query" {
		t.Fatalf("root span = %q, want query", root.Name)
	}
	// The program annotation is the program's own name ("addmul"), not
	// the registry key it was submitted under.
	if root.Annotations["program"] != "addmul" || root.Annotations["tenant"] != "acme" {
		t.Fatalf("root annotations = %v", root.Annotations)
	}

	phases := map[string]int{}
	var phaseSum time.Duration
	for _, c := range root.Children {
		phases[c.Name]++
		phaseSum += c.Duration()
	}
	for _, want := range []string{"planning", "admission-wait", "input-fill", "exec", "result-fetch"} {
		if phases[want] != 1 {
			t.Errorf("phase %q appears %d times, want exactly once (tree: %v)", want, phases[want], phases)
		}
	}
	if wall := root.Duration(); phaseSum < wall*9/10 {
		t.Errorf("phases cover %v of %v wall (%.0f%%), want >= 90%%",
			phaseSum, wall, 100*float64(phaseSum)/float64(wall))
	}

	// The exec phase carries per-stage child spans and prefetch
	// annotations bridged from the engine's Result.
	var execSpan *telemetry.Span
	for _, c := range root.Children {
		if c.Name == "exec" {
			execSpan = c
		}
	}
	stages := 0
	for _, c := range execSpan.Children {
		if strings.HasPrefix(c.Name, "stage:") {
			stages++
		}
	}
	if stages == 0 {
		t.Errorf("exec span has no stage children: %v", execSpan.Children)
	}
}

// TestSlowQueryLog asserts the threshold gates logging: every query is
// slow at 1ns-scale thresholds, none at absurd ones, and the logged
// line carries the full span breakdown.
func TestSlowQueryLog(t *testing.T) {
	var buf bytes.Buffer
	s, err := New(Config{
		Dir:          t.TempDir(),
		Seed:         testSeed,
		Programs:     map[string]func() *prog.Program{"addmul-small": smallAddMul},
		SlowQueryMs:  1, // the small program still takes >1ms of real work
		SlowQueryLog: &buf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	id := runSmall(t, s)

	line := strings.TrimSpace(buf.String())
	if line == "" {
		t.Fatal("no slow-query line logged at a 1ms threshold")
	}
	var got slowQueryLine
	if err := json.Unmarshal([]byte(line), &got); err != nil {
		t.Fatalf("slow-query line is not one JSON object: %v\n%s", err, line)
	}
	if got.QueryID != id || got.Program != "addmul" || got.Tenant != "acme" {
		t.Fatalf("slow-query line = %+v", got)
	}
	if got.WallMs < 1 {
		t.Fatalf("wallMs = %v, want >= threshold", got.WallMs)
	}
	if got.Trace == nil || got.Trace.Name != "query" || len(got.Trace.Children) == 0 {
		t.Fatalf("slow-query trace missing span breakdown: %+v", got.Trace)
	}

	// Same run shape under a sky-high threshold: nothing logged.
	var quiet bytes.Buffer
	s2, err := New(Config{
		Dir:          t.TempDir(),
		Seed:         testSeed,
		Programs:     map[string]func() *prog.Program{"addmul-small": smallAddMul},
		SlowQueryMs:  1 << 40,
		SlowQueryLog: &quiet,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	runSmall(t, s2)
	if quiet.Len() != 0 {
		t.Fatalf("logged below threshold: %s", quiet.String())
	}
}

// expositionLine matches one Prometheus text-format sample line.
var expositionLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? [0-9.eE+-]+$`)

// TestMetricsEndpoint asserts /metrics serves parseable exposition
// covering every subsystem the issue names.
func TestMetricsEndpoint(t *testing.T) {
	s, ts := newHTTPServer(t)
	runSmall(t, s)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") || !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("/metrics Content-Type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)

	for _, ln := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if strings.HasPrefix(ln, "# HELP ") || strings.HasPrefix(ln, "# TYPE ") {
			continue
		}
		if !expositionLine.MatchString(ln) {
			t.Errorf("unparseable exposition line: %q", ln)
		}
	}

	for _, want := range []string{
		"riotshare_admission_wait_seconds_bucket",
		"riotshare_planning_seconds_count",
		"riotshare_query_seconds_bucket",
		"riotshare_exec_stage_seconds_bucket",
		"riotshare_pool_hits_total",
		"riotshare_pool_bytes_cached",
		"riotshare_store_read_reqs_total",
		"riotshare_queries_finished_total",
		"riotshare_plan_cache_misses_total",
		"riotshare_input_fills_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
}

// TestTraceEndpoint covers the id listing, the span-tree fetch, and the
// unknown-id 404.
func TestTraceEndpoint(t *testing.T) {
	s, ts := newHTTPServer(t)
	id := runSmall(t, s)

	resp, err := http.Get(ts.URL + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	var listing struct {
		Traces []string `json:"traces"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(listing.Traces) != 1 || listing.Traces[0] != id {
		t.Fatalf("trace listing = %v", listing.Traces)
	}

	resp, err = http.Get(ts.URL + "/trace?id=" + id)
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("/trace Content-Type = %q", ct)
	}
	var tr telemetry.Trace
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if tr.QueryID != id || tr.Root == nil || tr.Root.Name != "query" {
		t.Fatalf("trace = %+v", tr)
	}

	resp, err = http.Get(ts.URL + "/trace?id=nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown trace status = %d", resp.StatusCode)
	}
}

// TestJSONContentTypeAndPretty asserts handlers declare
// application/json, default to compact encoding, and honor ?pretty=1.
func TestJSONContentTypeAndPretty(t *testing.T) {
	s, ts := newHTTPServer(t)
	runSmall(t, s)

	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("/stats Content-Type = %q", ct)
	}
	compact, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if bytes.Contains(bytes.TrimRight(compact, "\n"), []byte("\n")) {
		t.Fatalf("default /stats is not compact:\n%s", compact)
	}

	resp, err = http.Get(ts.URL + "/stats?pretty=1")
	if err != nil {
		t.Fatal(err)
	}
	pretty, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !bytes.Contains(pretty, []byte("\n  \"")) {
		t.Fatalf("?pretty=1 /stats is not indented:\n%s", pretty)
	}
	var a, b Stats
	if err := json.Unmarshal(compact, &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(pretty, &b); err != nil {
		t.Fatal(err)
	}
	if a.Finished != b.Finished {
		t.Fatalf("pretty and compact stats disagree: %d vs %d", a.Finished, b.Finished)
	}

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/healthz Content-Type = %q", ct)
	}
}

// startBlockd starts an in-process riotblockd on a loopback port, closed
// when the test ends.
func startBlockd(t *testing.T) *blockd.Server {
	t.Helper()
	srv, err := blockd.New(t.TempDir(), blockd.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// scrape fetches GET /metrics and returns the exposition text.
func scrape(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: status %d, err %v", resp.StatusCode, err)
	}
	return string(body)
}

// Stats(), GET /stats and a /metrics scrape each poll every remote shard
// exactly once, so the store-wide totals they report cannot disagree
// with the per-shard rows of the same response.
func TestOneStoreSnapshotPerStatsAndScrape(t *testing.T) {
	remotes := []*blockd.Server{startBlockd(t), startBlockd(t)}
	s, ts := newHTTPServerOn(t, Config{ShardAddrs: []string{remotes[0].Addr(), remotes[1].Addr()}})
	runSmall(t, s)

	// statsOps counts the OpStats requests each shard server answered.
	statsOps := func() []int64 {
		out := make([]int64, len(remotes))
		for i, srv := range remotes {
			out[i] = srv.Metrics().Histogram("riotblockd_op_seconds", "", nil, telemetry.L("op", "stats")).Count()
		}
		return out
	}
	expectOneEach := func(what string, call func()) {
		t.Helper()
		before := statsOps()
		call()
		after := statsOps()
		for i := range after {
			if d := after[i] - before[i]; d != 1 {
				t.Errorf("%s: shard %d answered %d stats requests, want 1", what, i, d)
			}
		}
	}

	var st Stats
	expectOneEach("Stats()", func() { st = s.Stats() })
	var sum storage.Stats
	var degraded int64
	for _, sh := range st.Shards {
		sum.ReadReqs += sh.ReadReqs
		sum.ReadBytes += sh.ReadBytes
		sum.WriteReqs += sh.WriteReqs
		sum.WriteBytes += sh.WriteBytes
		degraded += sh.DegradedReads
	}
	if st.Store != sum || st.DegradedReads != degraded {
		t.Errorf("Store %+v (degraded reads %d) != sum of Shards %+v (%d)", st.Store, st.DegradedReads, sum, degraded)
	}
	if st.Store.WriteReqs == 0 {
		t.Error("no physical writes reported after a query")
	}

	expectOneEach("GET /stats", func() {
		resp, err := http.Get(ts.URL + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	})
	var text string
	expectOneEach("GET /metrics", func() { text = scrape(t, ts) })
	want := fmt.Sprintf("riotshare_store_write_reqs_total %d\n", st.Store.WriteReqs)
	if !strings.Contains(text, want) {
		t.Errorf("/metrics lacks %q", strings.TrimSpace(want))
	}
}

// samples parses an exposition into its counter and gauge samples, keyed
// by series ("name{labels}"); histogram families are left out.
func samples(t *testing.T, text string) map[string]float64 {
	t.Helper()
	kinds := map[string]string{}
	out := map[string]float64{}
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			kinds[f[2]] = f[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		series := line[:sp]
		name, _, _ := strings.Cut(series, "{")
		switch kinds[name] {
		case "counter", "gauge":
		default:
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("bad sample line %q: %v", line, err)
		}
		out[series] = v
	}
	return out
}

// Every counter and gauge family /metrics emits is a field of Stats: on a
// quiescent server over one local and one remote shard, after a query, a
// stream and a slow-query log line, each sample equals the field it
// renders, and every field the mapping below names is emitted.
func TestMetricsRenderStats(t *testing.T) {
	s, ts := newHTTPServerOn(t, Config{
		ShardDirs:  []string{t.TempDir()},
		ShardAddrs: []string{startBlockd(t).Addr()},
		Workers:    2, SlowQueryMs: 1, SlowQueryLog: io.Discard,
	})
	id := runSmall(t, s)
	resp, err := http.Get(ts.URL + "/results/stream?id=" + id)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	// The stream's counters land just after its last frame is written.
	for deadline := time.Now().Add(5 * time.Second); s.Stats().Streams.Completed != 1; {
		if time.Now().After(deadline) {
			t.Fatal("stream never counted as completed")
		}
		time.Sleep(time.Millisecond)
	}

	// The process counters move while the scrape runs: each sample must
	// lie between a reading taken before it and the snapshot after it.
	pre := telemetry.ReadProcess()
	got := samples(t, scrape(t, ts))
	st := s.Stats()
	n := func(v int64) float64 { return float64(v) }
	u := func(v uint64) float64 { return float64(v) }
	moving := map[string][2]float64{
		`riotshare_process_cpu_seconds_total{mode="user"}`:   {pre.UserCPU.Seconds(), st.Process.UserCPU.Seconds()},
		`riotshare_process_cpu_seconds_total{mode="system"}`: {pre.SystemCPU.Seconds(), st.Process.SystemCPU.Seconds()},
		"riotshare_process_alloc_bytes_total":                {u(pre.AllocBytes), u(st.Process.AllocBytes)},
		"riotshare_process_alloc_objects_total":              {u(pre.AllocObjects), u(st.Process.AllocObjects)},
		"riotshare_process_gc_cycles_total":                  {u(pre.GCCycles), u(st.Process.GCCycles)},
	}
	want := map[string]float64{
		"riotshare_queries_running":            float64(st.Running),
		"riotshare_queries_queued":             float64(st.Queued),
		"riotshare_queries_submitted_total":    n(st.Submitted),
		"riotshare_queries_finished_total":     n(st.Finished),
		"riotshare_slow_queries_total":         n(st.SlowQueries),
		"riotshare_plan_cache_hits_total":      n(st.PlanCacheHits),
		"riotshare_plan_cache_misses_total":    n(st.PlanCacheMisses),
		"riotshare_plan_cache_entries":         float64(st.PlanCacheSize),
		"riotshare_plan_cache_evictions_total": n(st.PlanCacheEvictions),
		"riotshare_plan_shape_hits_total":      n(st.PlanShapeHits),
		"riotshare_plan_shape_misses_total":    n(st.PlanShapeMisses),
		"riotshare_plan_shape_entries":         float64(st.PlanShapeEntries),
		"riotshare_input_fills_total":          n(st.InputFills),
		"riotshare_input_fills_skipped_total":  n(st.InputFillsSkipped),
		"riotshare_prefetch_issued_total":      n(st.PrefetchIssued),
		"riotshare_prefetch_inline_total":      n(st.PrefetchInline),
		"riotshare_result_read_blocks_total":   n(st.ResultReadBlocks),

		"riotshare_pool_hits_total":       n(st.Pool.Hits),
		"riotshare_pool_misses_total":     n(st.Pool.Misses),
		"riotshare_pool_puts_total":       n(st.Pool.Puts),
		"riotshare_pool_evictions_total":  n(st.Pool.Evictions),
		"riotshare_pool_writebacks_total": n(st.Pool.Writebacks),
		"riotshare_pool_discards_total":   n(st.Pool.Discards),
		"riotshare_pool_bytes_cached":     n(st.Pool.BytesCached),
		"riotshare_pool_bytes_cap":        n(st.Pool.BytesCap),
		"riotshare_pool_frames":           float64(st.Pool.Frames),
		"riotshare_pool_pinned_frames":    float64(st.Pool.PinnedFrames),
		"riotshare_pool_hit_rate":         st.Pool.HitRate(),

		`riotshare_pool_writeback_seconds_total{path="evict"}`:   st.Pool.EvictWriteTime.Seconds(),
		`riotshare_pool_writeback_seconds_total{path="release"}`: st.Pool.ReleaseWriteTime.Seconds(),

		"riotshare_store_read_reqs_total":   n(st.Store.ReadReqs),
		"riotshare_store_read_bytes_total":  n(st.Store.ReadBytes),
		"riotshare_store_write_reqs_total":  n(st.Store.WriteReqs),
		"riotshare_store_write_bytes_total": n(st.Store.WriteBytes),

		"riotshare_streams_active":                    float64(st.Streams.Active),
		"riotshare_stream_blocks_total":               n(st.Streams.Blocks),
		"riotshare_stream_bytes_total":                n(st.Streams.Bytes),
		`riotshare_streams_total{outcome="done"}`:     n(st.Streams.Completed),
		`riotshare_streams_total{outcome="canceled"}`: n(st.Streams.Canceled),
		`riotshare_streams_total{outcome="error"}`:    n(st.Streams.Errors),
	}
	for tenant, ps := range st.Pool.Tenants {
		lbl := fmt.Sprintf("{tenant=%q}", tenant)
		want["riotshare_pool_tenant_hits_total"+lbl] = n(ps.Hits)
		want["riotshare_pool_tenant_misses_total"+lbl] = n(ps.Misses)
		want["riotshare_pool_tenant_bytes_cached"+lbl] = n(ps.BytesCached)
	}
	remotes := 0
	for i, sh := range st.Shards {
		lbl := fmt.Sprintf("{shard=\"%d\",spec=%q}", i, sh.Dir)
		want["riotshare_shard_read_reqs_total"+lbl] = n(sh.ReadReqs)
		want["riotshare_shard_read_bytes_total"+lbl] = n(sh.ReadBytes)
		want["riotshare_shard_write_reqs_total"+lbl] = n(sh.WriteReqs)
		want["riotshare_shard_write_bytes_total"+lbl] = n(sh.WriteBytes)
		want["riotshare_shard_degraded_reads_total"+lbl] = n(sh.DegradedReads)
		want["riotshare_shard_degraded"+lbl] = 0
		if sh.Remote == nil {
			continue
		}
		remotes++
		lbl = fmt.Sprintf("{shard=\"%d\",addr=%q}", i, sh.Dir)
		want["riotshare_remote_dials_total"+lbl] = n(sh.Remote.Dials)
		want["riotshare_remote_retries_total"+lbl] = n(sh.Remote.Retries)
		want["riotshare_remote_timeouts_total"+lbl] = n(sh.Remote.Timeouts)
		want["riotshare_remote_write_lock_wait_seconds_total"+lbl] = sh.Remote.WriteLockWait.Seconds()
		want["riotshare_remote_pending_max"+lbl] = n(sh.Remote.PendingMax)
	}

	// The snapshot must carry what it is checked on, or equality is vacuous.
	if len(st.Shards) != 2 || remotes != 1 || st.Shards[1].Remote.Dials == 0 {
		t.Fatalf("shards %+v: want one local and one dialed remote shard", st.Shards)
	}
	if st.Finished != 1 || st.SlowQueries != 1 || st.Streams.Blocks == 0 ||
		st.PrefetchIssued+st.PrefetchInline == 0 || st.Pool.Tenants["acme"].Misses == 0 ||
		st.Shards[1].Remote.PendingMax == 0 || st.Process.UserCPU == 0 || st.Process.AllocObjects == 0 {
		t.Fatalf("snapshot lacks the query, slow-query line, stream or prefetch it is checked on: %+v", st)
	}
	for series, w := range want {
		if g, ok := got[series]; !ok {
			t.Errorf("/metrics lacks %s (Stats: %v)", series, w)
		} else if g != w {
			t.Errorf("/metrics %s = %v, Stats says %v", series, g, w)
		}
	}
	for series, r := range moving {
		if g, ok := got[series]; !ok {
			t.Errorf("/metrics lacks %s (Stats: %v)", series, r[1])
		} else if g < r[0] || g > r[1] {
			t.Errorf("/metrics %s = %v, outside [%v, %v] read around the scrape", series, g, r[0], r[1])
		}
	}
	for series := range got {
		_, fixed := want[series]
		if _, moves := moving[series]; !fixed && !moves {
			t.Errorf("/metrics emits %s, which renders no Stats field", series)
		}
	}
}

// Taking a snapshot registers no metric series. A query that fails
// before admission leaves its tenant without an admission-wait series, and
// only the planner tier that served has a tier series; Stats() — which
// every scrape takes — must not add them, or each scrape would change the
// next.
func TestStatsRegistersNoSeries(t *testing.T) {
	s, ts := newHTTPServer(t)
	bad := 99
	id, err := s.Submit(Request{Program: "addmul-small", Tenant: "x", Plan: &bad})
	if err != nil {
		t.Fatal(err)
	}
	if st, err := s.Wait(id); err != nil || st.State != StateFailed {
		t.Fatalf("plan 99: state %s, err %v; want a failure before admission", st.State, err)
	}
	before := seriesOf(scrape(t, ts))
	s.Stats()
	after := seriesOf(scrape(t, ts))
	if before != after {
		t.Errorf("Stats() changed the next scrape:\n--- before ---\n%s--- after ---\n%s", before, after)
	}
	for _, family := range []string{"riotshare_process_cpu_seconds_total", "riotshare_process_alloc_bytes_total",
		"riotshare_process_alloc_objects_total", "riotshare_process_gc_cycles_total", "riotshare_result_read_blocks_total"} {
		if !strings.Contains(after, "\n"+family) {
			t.Errorf("/metrics lacks %s", family)
		}
	}
	for _, series := range []string{`riotshare_admission_wait_seconds_count{tenant="x"}`, `tier="shape"`, `tier="cache"`} {
		if strings.Contains(after, series) {
			t.Errorf("/metrics has %s, which nothing observed", series)
		}
	}
}

// seriesOf keeps an exposition's text but blanks the values of the
// process counters, which the scrape itself moves.
func seriesOf(exposition string) string {
	lines := strings.Split(exposition, "\n")
	for i, line := range lines {
		if sp := strings.LastIndexByte(line, ' '); strings.HasPrefix(line, "riotshare_process_") && sp > 0 {
			lines[i] = line[:sp]
		}
	}
	return strings.Join(lines, "\n")
}

// metricFamily matches the family name of an exposition TYPE line.
var metricFamily = regexp.MustCompile(`(?m)^# TYPE (riotshare_[a-z0-9_]+) `)

// Every riotshare_* family a server emits — over a local and a remote
// shard, after a query — is named in docs/observability.md.
func TestMetricFamiliesDocumented(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "docs", "observability.md"))
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newHTTPServerOn(t, Config{ShardDirs: []string{t.TempDir()}, ShardAddrs: []string{startBlockd(t).Addr()}})
	runSmall(t, s)

	families := metricFamily.FindAllStringSubmatch(scrape(t, ts), -1)
	if len(families) == 0 {
		t.Fatal("/metrics emitted no riotshare_* family")
	}
	for _, m := range families {
		if !bytes.Contains(doc, []byte("`"+m[1]+"`")) {
			t.Errorf("metric family %s is not named in docs/observability.md", m[1])
		}
	}
}
