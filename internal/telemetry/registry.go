// Package telemetry provides a dependency-free metrics registry and a
// per-query span tracer, plus Prometheus text exposition. It is the
// observability layer shared by riotshared and riotblockd.
//
// The registry holds two things: fixed-bucket latency histograms
// (Histogram, HistogramVec), observed on the hot path and read back for
// quantiles, and scrape-time collectors (Collect), which emit counter
// and gauge samples from a component's own stats snapshot. A counter or
// gauge therefore lives exactly once, as a field of that snapshot, and
// the exposition renders it; the registry keeps no counter state.
//
// Histogram handles are nil-safe: methods on a nil *Registry return
// nil handles, and methods on nil handles are no-ops, so a component
// instrumented against a nil registry pays only a nil check per call
// site.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Label is one key=value metric dimension.
type Label struct {
	Key   string
	Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// DefBuckets is the default latency histogram layout in seconds,
// spanning 100µs to 60s. It suits both block I/O and whole-query
// latencies in this system.
var DefBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
	0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// metric kinds for exposition.
const (
	kindCounter   = "counter"
	kindGauge     = "gauge"
	kindHistogram = "histogram"
)

// Histogram is a fixed-bucket distribution metric. Buckets are
// cumulative upper bounds as in Prometheus; an implicit +Inf bucket
// always exists. A nil *Histogram is a valid no-op.
type Histogram struct {
	uppers  []float64      // finite upper bounds, ascending
	counts  []atomic.Int64 // len(uppers)+1; last is +Inf overflow
	sumBits atomic.Uint64  // float64 bits of the sample sum
	count   atomic.Int64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.uppers, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// ObserveDuration records a duration sample in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) {
	if h == nil {
		return
	}
	h.Observe(d.Seconds())
}

// Count returns the total number of samples observed.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed samples.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Quantile estimates the q-quantile (0 < q <= 1) by linear
// interpolation within the bucket that contains it, mirroring
// Prometheus's histogram_quantile. Samples beyond the last finite
// bucket clamp to that bound. Returns 0 when empty.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum int64
	for i := range h.counts {
		n := h.counts[i].Load()
		if n == 0 {
			cum += n
			continue
		}
		if float64(cum+n) >= rank {
			if i >= len(h.uppers) {
				// +Inf bucket: clamp to the last finite bound.
				if len(h.uppers) == 0 {
					return 0
				}
				return h.uppers[len(h.uppers)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = h.uppers[i-1]
			}
			hi := h.uppers[i]
			frac := (rank - float64(cum)) / float64(n)
			if frac < 0 {
				frac = 0
			} else if frac > 1 {
				frac = 1
			}
			return lo + (hi-lo)*frac
		}
		cum += n
	}
	if len(h.uppers) == 0 {
		return 0
	}
	return h.uppers[len(h.uppers)-1]
}

// snapshot returns (bucketCounts, sum, count) read once; bucket
// counts are cumulative as required by exposition.
func (h *Histogram) snapshot() ([]int64, float64, int64) {
	cum := make([]int64, len(h.counts))
	var running int64
	for i := range h.counts {
		running += h.counts[i].Load()
		cum[i] = running
	}
	return cum, math.Float64frombits(h.sumBits.Load()), h.count.Load()
}

// series is one labeled histogram of a family.
type series struct {
	labels []Label
	hist   *Histogram
}

// family groups all histogram series sharing a metric name.
type family struct {
	name    string
	help    string
	buckets []float64
	series  map[string]*series
	order   []string
}

// Registry holds histogram families and scrape-time collectors. The
// zero value is not usable; call New. A nil *Registry is a valid no-op
// registry: registration methods return nil handles.
type Registry struct {
	mu         sync.Mutex
	families   map[string]*family
	order      []string
	collectors []func(*Emit)
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{families: map[string]*family{}}
}

// labelKey builds the series memoization key: labels are sorted by
// key so call-site order doesn't split a label set into two series,
// and the separators ','/'=' (plus '\') are escaped so no label value
// can collide with a differently-split label set. The escaping keeps
// keys lexicographically ordered like their label sets, so series
// sort order in exposition follows label order.
func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	sorted := make([]Label, len(labels))
	copy(sorted, labels)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Key < sorted[j].Key })
	var b strings.Builder
	for i, l := range sorted {
		if i > 0 {
			b.WriteByte(',')
		}
		keyEscape(&b, l.Key)
		b.WriteByte('=')
		keyEscape(&b, l.Value)
	}
	return b.String()
}

func keyEscape(b *strings.Builder, s string) {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c == '\\' || c == ',' || c == '=' {
			b.WriteByte('\\')
		}
		b.WriteByte(c)
	}
}

// getFamilyLocked returns (registering on first use) the named
// histogram family; every caller holds r.mu.
func (r *Registry) getFamilyLocked(name, help string, buckets []float64) *family {
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, buckets: buckets, series: map[string]*series{}}
		r.families[name] = f
		r.order = append(r.order, name)
		return f
	}
	if !sameBuckets(f.buckets, buckets) {
		panic(fmt.Sprintf("telemetry: histogram %q re-registered with buckets %v (was %v)", name, buckets, f.buckets))
	}
	return f
}

func sameBuckets(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// getSeries returns (registering on first use) the family's histogram
// for the label set; every caller holds the registry lock.
func (f *family) getSeries(labels []Label) *Histogram {
	k := labelKey(labels)
	s, ok := f.series[k]
	if !ok {
		cp := make([]Label, len(labels))
		copy(cp, labels)
		h := &Histogram{uppers: f.buckets, counts: make([]atomic.Int64, len(f.buckets)+1)}
		s = &series{labels: cp, hist: h}
		f.series[k] = s
		f.order = append(f.order, k)
	}
	return s.hist
}

// Histogram registers (or fetches) a histogram series with the given
// bucket upper bounds (nil means DefBuckets). Safe for concurrent
// use; returns nil on a nil registry.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	if buckets == nil {
		buckets = DefBuckets
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.getFamilyLocked(name, help, buckets).getSeries(labels)
}

// HistogramVec is a single-label histogram family whose per-value
// handles are memoized in a lock-free map, so a steady-state hot path
// (one Observe per query/grant) only takes the registry mutex the
// first time a label value is seen. A nil *HistogramVec is a valid
// no-op.
type HistogramVec struct {
	reg     *Registry
	name    string
	help    string
	buckets []float64
	label   string
	m       sync.Map // label value -> *Histogram
}

// HistogramVec returns a memoizing view over the named histogram
// family keyed by one label. Returns nil on a nil registry.
func (r *Registry) HistogramVec(name, help string, buckets []float64, label string) *HistogramVec {
	if r == nil {
		return nil
	}
	return &HistogramVec{reg: r, name: name, help: help, buckets: buckets, label: label}
}

// With returns the histogram series for the given label value,
// registering it on first use.
func (v *HistogramVec) With(value string) *Histogram {
	if v == nil {
		return nil
	}
	if h, ok := v.m.Load(value); ok {
		return h.(*Histogram)
	}
	h := v.reg.Histogram(v.name, v.help, v.buckets, L(v.label, value))
	v.m.Store(value, h)
	return h
}

// Collect registers fn to be invoked at every scrape. Collectors emit
// the point-in-time counter and gauge values of a component's stats
// snapshot — the only way a counter or gauge reaches the exposition.
// No-op on a nil registry.
func (r *Registry) Collect(fn func(*Emit)) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.collectors = append(r.collectors, fn)
}

// Emit receives point-in-time samples from scrape collectors.
type Emit struct {
	fams  map[string]*emitFamily
	order []string
}

type emitFamily struct {
	help string
	kind string
	rows []emitRow
}

type emitRow struct {
	labels []Label
	value  float64
}

func (e *Emit) add(name, help, kind string, v float64, labels []Label) {
	f, ok := e.fams[name]
	if !ok {
		f = &emitFamily{help: help, kind: kind}
		e.fams[name] = f
		e.order = append(e.order, name)
	}
	cp := make([]Label, len(labels))
	copy(cp, labels)
	f.rows = append(f.rows, emitRow{labels: cp, value: v})
}

// Counter emits a point-in-time counter sample.
func (e *Emit) Counter(name, help string, v float64, labels ...Label) {
	e.add(name, help, kindCounter, v, labels)
}

// Gauge emits a point-in-time gauge sample.
func (e *Emit) Gauge(name, help string, v float64, labels ...Label) {
	e.add(name, help, kindGauge, v, labels)
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

func formatLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// labelsWithLE appends an le label for histogram bucket lines.
func labelsWithLE(labels []Label, le string) string {
	all := make([]Label, 0, len(labels)+1)
	all = append(all, labels...)
	all = append(all, Label{Key: "le", Value: le})
	return formatLabels(all)
}

func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus writes all registered families plus collector
// output in Prometheus text exposition format (version 0.0.4).
// Families are emitted in sorted name order and series in sorted
// label order, so output is deterministic for a given state. No-op on
// a nil registry.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	// Snapshot family metadata and series handle lists while holding
	// the lock: concurrent Histogram calls mutate the series maps, so they must never be read unlocked. The handles
	// themselves are updated via atomics, so formatting can proceed
	// outside the lock on the snapshot.
	r.mu.Lock()
	names := make([]string, len(r.order))
	copy(names, r.order)
	snaps := make(map[string]*famSnapshot, len(r.families))
	for _, name := range names {
		snaps[name] = r.families[name].snapshot()
	}
	collectors := make([]func(*Emit), len(r.collectors))
	copy(collectors, r.collectors)
	r.mu.Unlock()

	e := &Emit{fams: map[string]*emitFamily{}}
	for _, fn := range collectors {
		fn(e)
	}

	// Merge registered family names with collector-emitted names.
	seen := map[string]bool{}
	all := make([]string, 0, len(names)+len(e.order))
	for _, n := range names {
		if !seen[n] {
			seen[n] = true
			all = append(all, n)
		}
	}
	for _, n := range e.order {
		if !seen[n] {
			seen[n] = true
			all = append(all, n)
		}
	}
	sort.Strings(all)

	var b strings.Builder
	for _, name := range all {
		f := snaps[name]
		ef := e.fams[name]
		help, kind := "", ""
		if f != nil {
			help, kind = f.help, kindHistogram
		} else if ef != nil {
			help, kind = ef.help, ef.kind
		}
		fmt.Fprintf(&b, "# HELP %s %s\n", name, strings.ReplaceAll(help, "\n", " "))
		fmt.Fprintf(&b, "# TYPE %s %s\n", name, kind)
		if f != nil {
			writeFamily(&b, f)
		}
		if ef != nil {
			writeEmitFamily(&b, name, ef)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// famSnapshot is a scrape-time copy of one family's metadata and
// series handle list, taken under the registry lock.
type famSnapshot struct {
	name, help string
	series     []*series
}

// snapshot copies the family's series handles in sorted key order.
// Must be called with the registry lock held.
func (f *family) snapshot() *famSnapshot {
	keys := make([]string, len(f.order))
	copy(keys, f.order)
	sort.Strings(keys)
	sl := make([]*series, 0, len(keys))
	for _, k := range keys {
		sl = append(sl, f.series[k])
	}
	return &famSnapshot{name: f.name, help: f.help, series: sl}
}

func writeFamily(b *strings.Builder, f *famSnapshot) {
	for _, s := range f.series {
		cum, sum, count := s.hist.snapshot()
		for i, upper := range s.hist.uppers {
			fmt.Fprintf(b, "%s_bucket%s %d\n", f.name, labelsWithLE(s.labels, formatFloat(upper)), cum[i])
		}
		fmt.Fprintf(b, "%s_bucket%s %d\n", f.name, labelsWithLE(s.labels, "+Inf"), cum[len(cum)-1])
		fmt.Fprintf(b, "%s_sum%s %s\n", f.name, formatLabels(s.labels), formatFloat(sum))
		fmt.Fprintf(b, "%s_count%s %d\n", f.name, formatLabels(s.labels), count)
	}
}

func writeEmitFamily(b *strings.Builder, name string, ef *emitFamily) {
	rows := make([]emitRow, len(ef.rows))
	copy(rows, ef.rows)
	sort.Slice(rows, func(i, j int) bool {
		return labelKey(rows[i].labels) < labelKey(rows[j].labels)
	})
	for _, row := range rows {
		fmt.Fprintf(b, "%s%s %s\n", name, formatLabels(row.labels), formatFloat(row.value))
	}
}
