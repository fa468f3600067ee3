package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"riotshare/internal/server"
)

// TestRequestListIsAFunctionOfTheSeed: same seed → byte-identical list,
// different seed → different list, on every workload.
func TestRequestListIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		n := w.count(defaultSeconds)
		list := func(seed int64) []byte {
			bodies, err := encode(w.generate(seed, n))
			if err != nil {
				t.Fatal(err)
			}
			return ndjson(bodies)
		}
		a, b, c := list(7), list(7), list(8)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: the same seed gave two different request lists", w.name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same request list", w.name)
		}
		if got := bytes.Count(a, []byte{'\n'}); got != n || n < minRequests {
			t.Errorf("%s: %d requests, want %d (>= %d)", w.name, got, n, minRequests)
		}
	}
}

// planCacheKey mirrors the server's plan-cache key for a spec submission:
// the spec's canonical JSON.
func planCacheKey(t *testing.T, p *program) string {
	b, err := json.Marshal(p.spec())
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// distinctPlans counts the plan-cache keys a request list touches.
func distinctPlans(t *testing.T, reqs []request) int {
	keys := map[string]bool{}
	for _, r := range reqs {
		keys[planCacheKey(t, r.prog)] = true
	}
	return len(keys)
}

func TestPlanCacheKeysPerWorkload(t *testing.T) {
	cold := coldPlan.generate(3, coldPlan.count(defaultSeconds))
	if got := distinctPlans(t, cold); got != len(cold) {
		t.Errorf("cold-plan: %d distinct plan-cache keys over %d requests; every request must be novel", got, len(cold))
	}
	// The warm-up must not pre-plan any measured spec.
	warm := map[string]bool{}
	for _, p := range coldPlan.warm() {
		warm[planCacheKey(t, p)] = true
	}
	for _, r := range cold {
		if warm[planCacheKey(t, r.prog)] {
			t.Fatalf("cold-plan: %s is planned during warm-up", r.prog.name)
		}
	}
	if got := distinctPlans(t, hotShared.generate(3, hotShared.count(defaultSeconds))); got != 4 {
		t.Errorf("hot-shared: %d distinct plan-cache keys, want exactly 4", got)
	}
}

// TestMixIsTheSameForEverySeed: the multiset of programs depends only on
// the count, which is what makes per-query I/O volumes seed-independent.
func TestMixIsTheSameForEverySeed(t *testing.T) {
	for _, w := range workloads {
		count := func(seed int64) map[string]int {
			m := map[string]int{}
			for _, r := range w.generate(seed, w.count(defaultSeconds)) {
				m[r.prog.name]++
			}
			return m
		}
		a, b := count(1), count(2)
		if len(a) != len(b) {
			t.Fatalf("%s: %d vs %d distinct programs", w.name, len(a), len(b))
		}
		for name, n := range a {
			if b[name] != n {
				t.Errorf("%s: %s appears %d times under seed 1, %d under seed 2", w.name, name, n, b[name])
			}
		}
	}
}

func TestApportionIsExactAndSkewed(t *testing.T) {
	got := apportion(400, []float64{1, 1 / math.Pow(2, 1.1), 1 / math.Pow(3, 1.1), 1 / math.Pow(4, 1.1)})
	sum := 0
	for i, n := range got {
		sum += n
		if i > 0 && n > got[i-1] {
			t.Errorf("apportion not monotone: %v", got)
		}
	}
	if sum != 400 {
		t.Errorf("apportion(400) sums to %d: %v", sum, got)
	}
}

// TestTailPercentileNeedsTenSamplesBeyond: p95 is reported only from 200
// samples up; below that the highest supported percentile stands in, never
// lower than the median.
func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	ramp := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending, so tail must sort
		}
		return xs
	}
	v, used := tail(ramp(200), 0.95)
	if used != 0.95 || v != 190 {
		t.Errorf("n=200: p%g = %g, want p95 = 190", used*100, v)
	}
	if beyond := 200 - int(v); beyond < tailMargin {
		t.Errorf("n=200: only %d samples beyond the reported percentile", beyond)
	}
	v, used = tail(ramp(100), 0.95)
	if used != 0.90 || v != 90 {
		t.Errorf("n=100: p%g = %g, want p90 = 90", used*100, v)
	}
	v, used = tail(ramp(12), 0.95)
	if used != 0.5 || v != 6 {
		t.Errorf("n=12: p%g = %g, want the median 6", used*100, v)
	}
	if v, _ := tail(nil, 0.95); v != 0 {
		t.Errorf("empty sample: %g, want 0", v)
	}
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median = %g, want 3", got)
	}
}

// TestSelfTimeWithOverlappingChildren: a parent [0,100] with children
// [10,40], [30,60] (overlapping the first), [70,80] and one that overruns
// the parent [90,120]; a grandchild must not count against the root.
func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "query", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 40},
		{ID: 2, Parent: 0, Name: "b", Start: 30, End: 60},
		{ID: 3, Parent: 0, Name: "c", Start: 70, End: 80},
		{ID: 4, Parent: 0, Name: "d", Start: 90, End: 120},
		{ID: 5, Parent: 1, Name: "a.1", Start: 15, End: 25},
	}
	self := selfTimes(spans)
	// Covered: [10,60] ∪ [70,80] ∪ [90,100] = 70 → self 30.
	want := []time.Duration{30, 20, 30, 10, 30, 10}
	for i, w := range want {
		if self[i] != w {
			t.Errorf("self time of span %d (%s) = %d, want %d", i, spans[i].Name, self[i], w)
		}
	}
}

func TestRecorderLinksParents(t *testing.T) {
	rec := newRecorder()
	q := rec.begin("query")
	x := rec.begin("exec.run")
	a := rec.begin("buffer.acquire")
	s := rec.begin("storage.read")
	rec.end(s)
	rec.end(a)
	rec.end(x)
	rec.end(q)
	q2 := rec.begin("query")
	rec.end(q2)
	spans := rec.snapshot()
	wantParent := []int{-1, q, x, a, -1}
	wantQuery := []int{q, q, q, q, q2}
	for i, sp := range spans {
		if sp.Parent != wantParent[i] || sp.Query != wantQuery[i] {
			t.Errorf("span %d (%s): parent %d query %d, want %d and %d", i, sp.Name, sp.Parent, sp.Query, wantParent[i], wantQuery[i])
		}
		if sp.End < sp.Start {
			t.Errorf("span %d ends before it starts", i)
		}
	}
}

// TestOracleAgainstHandComputedProduct: C = A·B over a 2×2 grid of 1×1
// blocks with A = [1 2; 3 4], B = [5 6; 7 8], then G = C − A.
func TestOracleAgainstHandComputedProduct(t *testing.T) {
	b := newBuilder("hand")
	a, bb := b.input("a", 1, 1, 2, 2), b.input("b", 1, 1, 2, 2)
	b.elementwise("sub", "G", b.mul("C", a, bb, false), a, false)
	p := b.build()

	orc := newOracle(1)
	orc.inputs[a] = &dense{rows: 2, cols: 2, data: []float64{1, 2, 3, 4}}
	orc.inputs[bb] = &dense{rows: 2, cols: 2, data: []float64{5, 6, 7, 8}}
	want, err := orc.expect(p)
	if err != nil {
		t.Fatal(err)
	}
	for name, vals := range map[string][]float64{"C": {19, 22, 43, 50}, "G": {18, 20, 40, 46}} {
		got := want[name].values
		if got == nil {
			t.Fatalf("no expectation for %s", name)
		}
		for i, v := range vals {
			if got.data[i] != v {
				t.Errorf("%s[%d] = %g, want %g", name, i, got.data[i], v)
			}
		}
	}
	if want["C"].sum != 134 || want["G"].sum != 124 {
		t.Errorf("sums C=%g G=%g, want 134 and 124", want["C"].sum, want["G"].sum)
	}
	// A block the size of the whole grid row: block (1,0) of C is [43].
	if err := want.checkBlock("C", 1, 0, 1, 1, []float64{43}); err != nil {
		t.Errorf("correct block rejected: %v", err)
	}
	if err := want.checkBlock("C", 1, 0, 1, 1, []float64{43.0001}); err == nil {
		t.Error("wrong block accepted")
	}
	if err := want.checkOutputs([]server.OutputInfo{{Array: "C", Sum: 134}, {Array: "G", Sum: 124 + 1e-6}}); err == nil {
		t.Error("sum off by 1e-6 of ~124 accepted; tolerance is 1e-9 relative")
	}
	if err := want.checkOutputs([]server.OutputInfo{{Array: "C", Sum: 134}, {Array: "G", Sum: 124}}); err != nil {
		t.Errorf("correct sums rejected: %v", err)
	}
	if err := want.checkOutputs([]server.OutputInfo{{Array: "C", Sum: 134}}); err == nil {
		t.Error("missing output accepted")
	}
}

// TestOracleAgreesWithTheServer runs one multi-block program through an
// in-process server and holds its reported sums to the oracle — the two
// share no numeric code (the oracle is dense and naive; the server plans,
// blocks and pools).
func TestOracleAgreesWithTheServer(t *testing.T) {
	const seed = 42
	b := newBuilder("agree")
	c := b.elementwise("add", "C", b.input("a", 3, 2, 2, 3), b.input("b", 3, 2, 2, 3), true)
	b.mul("E", c, b.input("c", 2, 4, 3, 2), false)
	p := b.build()

	srv, err := server.New(server.Config{Dir: t.TempDir(), Seed: seed, PlanBudget: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	id, err := srv.Submit(server.Request{Spec: p.spec()})
	if err != nil {
		t.Fatal(err)
	}
	st, err := srv.Wait(id)
	if err != nil || st.State != server.StateDone {
		t.Fatalf("query: %v %s", err, st.Err)
	}
	want, err := newOracle(seed).expect(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := want.checkOutputs(st.Outputs); err != nil {
		t.Error(err)
	}
	if e := want["E"].values; e.rows != 6 || e.cols != 8 {
		t.Errorf("E is %dx%d, want 6x8", e.rows, e.cols)
	}
	// And under another fill seed the same outputs must not pass.
	other, err := newOracle(seed + 1).expect(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := other.checkOutputs(st.Outputs); err == nil {
		t.Error("outputs filled under seed 42 matched the oracle for seed 43")
	}
}

func TestSpecSharesParametersAcrossStatements(t *testing.T) {
	b := newBuilder("params")
	c := b.elementwise("add", "C", b.input("a", 4, 4, 2, 3), b.input("b", 4, 4, 2, 3), true)
	b.mul("E", c, b.input("c", 4, 4, 3, 5), false)
	sp := b.build().spec()
	// n1×n2 (+) then n1×n2 · n2×n3: three extents, three parameters.
	if len(sp.Params) != 3 {
		t.Fatalf("params %v, want 3", sp.Params)
	}
	if sp.Bind["n1"] != 2 || sp.Bind["n2"] != 3 || sp.Bind["n3"] != 5 {
		t.Errorf("bind %v, want n1=2 n2=3 n3=5", sp.Bind)
	}
	if _, err := sp.Build(); err != nil {
		t.Errorf("spec does not build: %v", err)
	}
}

func TestParsePrometheusSumsFamilies(t *testing.T) {
	text := `# HELP x_total things
# TYPE x_total counter
x_total{shard="0"} 3
x_total{shard="1"} 4
lat_seconds_bucket{le="0.1"} 9
lat_seconds_sum 1.5
lat_seconds_count 9
plain 2.5e3
`
	got, err := parsePrometheus(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if got["x_total"] != 7 || got["lat_seconds_count"] != 9 || got["plain"] != 2500 {
		t.Errorf("parsed %v", got)
	}
	if _, ok := got["lat_seconds_bucket"]; ok {
		t.Error("bucket series kept")
	}
}

func TestWorseningFollowsTheMetricsDirection(t *testing.T) {
	lower, higher := metricDef{better: "lower"}, metricDef{better: "higher"}
	if got := worsening(lower, 100, 110); math.Abs(got-0.10) > 1e-12 {
		t.Errorf("latency 100→110: %g, want +0.10", got)
	}
	if got := worsening(higher, 100, 90); math.Abs(got-0.10) > 1e-12 {
		t.Errorf("throughput 100→90: %g, want +0.10", got)
	}
	if got := worsening(higher, 100, 120); got >= 0 {
		t.Errorf("throughput 100→120 counted as worse: %g", got)
	}
}

// TestManifestMatchesBenchmarkJSON keeps the committed BENCHMARK.json in
// step with the metric and workload tables it is generated from.
func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, manifestJSON()) {
		t.Error("BENCHMARK.json is stale: regenerate it with `go run ./benchmark -manifest > BENCHMARK.json`")
	}
	// The contract's limits on names, units, bounds and counts.
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEndMetrics...), perLayerMetrics...) {
		if seen[d.name] {
			t.Errorf("metric %s defined twice", d.name)
		}
		seen[d.name] = true
		if !name.MatchString(d.name) || !unit.MatchString(d.unit) {
			t.Errorf("metric %q (unit %q) breaks the naming rules", d.name, d.unit)
		}
		if d.better != "lower" && d.better != "higher" {
			t.Errorf("%s: better = %q", d.name, d.better)
		}
		if d.bound < 0 || d.bound > 0.25 {
			t.Errorf("%s: bound %g outside the contract's [0, 0.25]", d.name, d.bound)
		}
	}
	if len(endToEndMetrics) > 16 || len(perLayerMetrics) > 128 || len(workloads) < 2 || len(workloads) > 8 {
		t.Errorf("%d end-to-end, %d per-layer metrics, %d workloads: outside the contract's limits",
			len(endToEndMetrics), len(perLayerMetrics), len(workloads))
	}
	for _, w := range workloads {
		if !name.MatchString(w.name) || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %q: name or why (%d chars) breaks the contract", w.name, len(w.why))
		}
	}
}

// TestQuietSlicesDropTheSlowestQuarter: eight slices of identical work, two
// of them slowed from outside; the timing sample is the other six.
func TestQuietSlicesDropTheSlowestQuarter(t *testing.T) {
	t0 := time.Unix(0, 0)
	build := func(n int, slow map[int]bool) *pass {
		p := &pass{n: n}
		at := t0
		for i := 0; i < n; i++ {
			lat := 10 * time.Millisecond
			if slow[i*rounds/n] {
				lat = 30 * time.Millisecond
			}
			p.samples = append(p.samples, sample{index: i, issued: true, start: at, latency: lat})
			at = at.Add(lat)
		}
		return p
	}
	kept, wall := build(80, map[int]bool{2: true, 5: true}).quiet()
	if len(kept) != 60 {
		t.Fatalf("kept %d samples, want 60 (six slices of ten)", len(kept))
	}
	for _, s := range kept {
		if s.latency != 10*time.Millisecond {
			t.Fatalf("sample %d of a slowed slice was kept", s.index)
		}
	}
	if wall != 600*time.Millisecond {
		t.Errorf("quiet wall %v, want 600ms", wall)
	}
	// A failed request stays out of the timing sample but not out of the count.
	p := build(80, nil)
	p.samples[3].err = errIncorrect
	if kept, _ = p.quiet(); len(kept) != 59 || p.failed() != 1 {
		t.Errorf("kept %d, failed %d; want 59 and 1", len(kept), p.failed())
	}
}
