package telemetry

import (
	"io"
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// Counters and gauges exist only as collector samples: each scrape
// renders the values its collectors emit at that moment, typed as
// emitted, and keeps no state between scrapes.
func TestCounterGaugeBasics(t *testing.T) {
	r := New()
	var ops int64
	depth := 2.5
	r.Collect(func(e *Emit) {
		e.Counter("riot_test_total", "test counter", float64(ops))
		e.Gauge("riot_test_gauge", "test gauge", depth, L("tenant", "a"))
	})
	scrape := func() string {
		var sb strings.Builder
		if err := r.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	ops = 5
	out := scrape()
	for _, want := range []string{
		"# TYPE riot_test_total counter\nriot_test_total 5\n",
		"# TYPE riot_test_gauge gauge\nriot_test_gauge{tenant=\"a\"} 2.5\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("scrape lacks %q:\n%s", want, out)
		}
	}
	ops, depth = 7, 1
	out = scrape()
	if !strings.Contains(out, "riot_test_total 7\n") || !strings.Contains(out, `riot_test_gauge{tenant="a"} 1`+"\n") {
		t.Fatalf("second scrape did not render the new samples:\n%s", out)
	}
}

func TestNilRegistryAndHandlesAreNoOps(t *testing.T) {
	var r *Registry
	h := r.Histogram("x", "", nil)
	v := r.HistogramVec("x", "", nil, "k")
	if h != nil || v != nil {
		t.Fatal("nil registry should hand out nil handles")
	}
	// None of these may panic.
	h.Observe(1)
	h.ObserveDuration(time.Second)
	v.With("a").Observe(1)
	if h.Quantile(0.5) != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil handles should read as zero")
	}
	r.Collect(func(*Emit) { t.Fatal("collector must not run") })
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	r := New()
	h := r.Histogram("riot_test_seconds", "test", []float64{0.01, 0.1, 1, 10})
	// 100 samples spread evenly through the 0–0.01 bucket, 100 through
	// the 0.01–0.1 bucket.
	for i := 0; i < 100; i++ {
		h.Observe(0.005)
		h.Observe(0.05)
	}
	if got := h.Count(); got != 200 {
		t.Fatalf("count = %d, want 200", got)
	}
	if got, want := h.Sum(), 100*0.005+100*0.05; math.Abs(got-want) > 1e-9 {
		t.Fatalf("sum = %v, want %v", got, want)
	}
	// p50 lands exactly at the first bucket's upper bound.
	if got := h.Quantile(0.5); math.Abs(got-0.01) > 1e-9 {
		t.Fatalf("p50 = %v, want 0.01", got)
	}
	// p75 is halfway through the second bucket: 0.01 + 0.5*(0.1-0.01).
	if got := h.Quantile(0.75); math.Abs(got-0.055) > 1e-9 {
		t.Fatalf("p75 = %v, want 0.055", got)
	}
	// Values past the last finite bucket clamp to it.
	h2 := r.Histogram("riot_test_clamp_seconds", "test", []float64{1})
	h2.Observe(100)
	if got := h2.Quantile(0.99); got != 1 {
		t.Fatalf("overflow quantile = %v, want clamp to 1", got)
	}
	// Empty histogram.
	h3 := r.Histogram("riot_test_empty_seconds", "test", nil)
	if got := h3.Quantile(0.5); got != 0 {
		t.Fatalf("empty quantile = %v, want 0", got)
	}
}

// TestRegistryConcurrency exercises parallel registration and writes
// against concurrent scrapes; meaningful under -race.
func TestRegistryConcurrency(t *testing.T) {
	r := New()
	r.Collect(func(e *Emit) {
		e.Gauge("riot_test_collected", "from collector", 1, L("src", "test"))
	})
	var wg sync.WaitGroup
	const workers = 8
	const iters = 500
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			tenant := string(rune('a' + w%4))
			for i := 0; i < iters; i++ {
				r.Histogram("riot_test_lat_seconds", "lat", nil, L("tenant", tenant)).Observe(float64(i) / 1000)
			}
		}()
	}
	// Scrape concurrently with the writers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			var sb strings.Builder
			if err := r.WritePrometheus(&sb); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()

	// Snapshot consistency: total samples across tenants equals all
	// observations.
	var total int64
	for _, tenant := range []string{"a", "b", "c", "d"} {
		total += r.Histogram("riot_test_lat_seconds", "lat", nil, L("tenant", tenant)).Count()
	}
	if total != workers*iters {
		t.Fatalf("total samples = %d, want %d", total, workers*iters)
	}
}

// TestScrapeDuringRegistration drives parallel WritePrometheus calls
// against registrations that keep introducing never-seen label
// values, so scrapes overlap series-map growth (including rehashes).
// The scrapers must run in their own goroutines: a single-threaded
// scrape loop re-acquires the registry mutex each iteration, which
// publishes its unlocked reads to the writers and hides the race from
// the detector. This shape crashes the pre-snapshot exposition path
// with "concurrent map read and map write".
func TestScrapeDuringRegistration(t *testing.T) {
	r := New()
	// Writers register a bounded but large stream of fresh label
	// values; scrapers keep scraping until every writer is done, so
	// series-map growth always overlaps exposition.
	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				v := string(rune('a'+w)) + "-" + strconv.Itoa(i)
				r.Histogram("riot_test_grow_seconds", "grow", nil, L("tenant", v)).Observe(0.01)
			}
		}()
	}
	go func() { wg.Wait(); close(done) }()
	var sg sync.WaitGroup
	for g := 0; g < 2; g++ {
		sg.Add(1)
		go func() {
			defer sg.Done()
			for {
				if err := r.WritePrometheus(io.Discard); err != nil {
					t.Error(err)
					return
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}
	sg.Wait()
}

// TestLabelKeyCanonical pins the series-identity rules: label order
// must not matter, and separator characters in values must not let
// two different label sets collide.
func TestLabelKeyCanonical(t *testing.T) {
	r := New()
	h1 := r.Histogram("riot_test_order_seconds", "order", nil, L("a", "1"), L("b", "2"))
	h2 := r.Histogram("riot_test_order_seconds", "order", nil, L("b", "2"), L("a", "1"))
	if h1 != h2 {
		t.Fatal("label order created two series for the same label set")
	}
	// {a="1,b=2"} must not collide with {a="1", b="2"}.
	h3 := r.Histogram("riot_test_order_seconds", "order", nil, L("a", "1,b=2"))
	if h3 == h1 {
		t.Fatal("separator characters in a label value collided with a different label set")
	}
}

// TestHistogramBucketMismatchPanics pins that re-registering a
// histogram family with a different bucket layout fails loudly
// instead of mixing layouts within one family.
func TestHistogramBucketMismatchPanics(t *testing.T) {
	r := New()
	r.Histogram("riot_test_layout_seconds", "layout", []float64{0.1, 1}, L("op", "a"))
	defer func() {
		if recover() == nil {
			t.Fatal("bucket layout mismatch did not panic")
		}
	}()
	r.Histogram("riot_test_layout_seconds", "layout", []float64{0.5}, L("op", "b"))
}

func TestHistogramVec(t *testing.T) {
	r := New()
	v := r.HistogramVec("riot_test_vec_seconds", "vec", []float64{1}, "tenant")
	h := v.With("a")
	if h == nil {
		t.Fatal("vec returned nil handle on live registry")
	}
	if v.With("a") != h {
		t.Fatal("vec did not memoize the handle")
	}
	// The vec resolves to the same series as direct registration.
	if r.Histogram("riot_test_vec_seconds", "vec", []float64{1}, L("tenant", "a")) != h {
		t.Fatal("vec series differs from direct registration")
	}
	var nv *HistogramVec
	if nv.With("x") != nil {
		t.Fatal("nil vec should hand out nil handles")
	}
	nv.With("x").Observe(1) // must not panic
}

// TestWritePrometheusGolden locks the exposition format: HELP/TYPE
// headers, sorted families and series (collector rows in label order
// whatever order they were emitted in), cumulative histogram buckets
// with +Inf, _sum and _count lines, label escaping.
func TestWritePrometheusGolden(t *testing.T) {
	r := New()
	h := r.Histogram("riot_c_seconds", "c histogram", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)
	r.Collect(func(e *Emit) {
		e.Counter("riot_b_total", "b counter", 3, L("tenant", "t1"))
		e.Counter("riot_b_total", "b counter", 1, L("tenant", `quo"te`))
		e.Gauge("riot_a_bytes", "a gauge", 1024)
	})
	r.Collect(func(e *Emit) {
		e.Gauge("riot_d_collected", "from a collector", 7, L("shard", "0"))
	})

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	want := `# HELP riot_a_bytes a gauge
# TYPE riot_a_bytes gauge
riot_a_bytes 1024
# HELP riot_b_total b counter
# TYPE riot_b_total counter
riot_b_total{tenant="quo\"te"} 1
riot_b_total{tenant="t1"} 3
# HELP riot_c_seconds c histogram
# TYPE riot_c_seconds histogram
riot_c_seconds_bucket{le="0.1"} 1
riot_c_seconds_bucket{le="1"} 2
riot_c_seconds_bucket{le="+Inf"} 3
riot_c_seconds_sum 5.55
riot_c_seconds_count 3
# HELP riot_d_collected from a collector
# TYPE riot_d_collected gauge
riot_d_collected{shard="0"} 7
`
	if got != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestSpanTree(t *testing.T) {
	root := StartSpan("query")
	p := root.Child("planning")
	p.Annotate("cache", "miss")
	p.End()
	e := root.Child("exec")
	stage := StartSpan("stage:load")
	stage.EndWith(42 * time.Millisecond)
	e.AttachChild(stage)
	e.End()
	root.End()

	if len(root.Children) != 2 {
		t.Fatalf("children = %d, want 2", len(root.Children))
	}
	if stage.Duration() != 42*time.Millisecond {
		t.Fatalf("stage duration = %v", stage.Duration())
	}

	var sb strings.Builder
	root.Render(&sb, 0)
	out := sb.String()
	for _, frag := range []string{"query", "planning", "cache=miss", "stage:load"} {
		if !strings.Contains(out, frag) {
			t.Fatalf("rendered trace missing %q:\n%s", frag, out)
		}
	}

	// Nil safety.
	var ns *Span
	ns.End()
	ns.Annotate("k", "v")
	ns.AttachChild(root)
	if ns.Child("x") != nil {
		t.Fatal("nil span Child should be nil")
	}
}
