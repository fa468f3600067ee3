package server

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"riotshare/internal/prog"
)

// fairnessWorkload drives one server through the two-tenant scenario at
// K=1: a flooding tenant piles floodN queries into the queue, then a small
// tenant submits smallN queries behind them. It returns the final statuses
// of both groups.
func fairnessWorkload(t *testing.T, s *Server, floodTenant, smallTenant string, floodN, smallN int) (flood, small []QueryStatus) {
	t.Helper()
	// A first query fills the shared inputs, so the flood's head runs no
	// longer than any other query and the waits differ by queue order.
	id, err := s.Submit(Request{Program: "addmul-small", Tenant: "warm"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Wait(id); err != nil {
		t.Fatal(err)
	}
	floodIDs := make([]string, 0, floodN)
	for i := 0; i < floodN; i++ {
		id, err := s.Submit(Request{Program: "addmul-small", Tenant: floodTenant})
		if err != nil {
			t.Fatal(err)
		}
		floodIDs = append(floodIDs, id)
	}
	// Only submit the small tenant's queries once the flood has piled up
	// behind the single slot, so both schedulers face the same backlog.
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := s.Stats()
		if st.Running+st.Queued >= floodN-1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("flood never queued: %+v", st)
		}
		time.Sleep(200 * time.Microsecond)
	}
	smallIDs := make([]string, 0, smallN)
	for i := 0; i < smallN; i++ {
		id, err := s.Submit(Request{Program: "addmul-small", Tenant: smallTenant})
		if err != nil {
			t.Fatal(err)
		}
		smallIDs = append(smallIDs, id)
	}
	for _, id := range floodIDs {
		st, err := s.Wait(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != StateDone {
			t.Fatalf("flood query %s: %s (%s)", id, st.State, st.Err)
		}
		flood = append(flood, st)
	}
	for _, id := range smallIDs {
		st, err := s.Wait(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != StateDone {
			t.Fatalf("small query %s: %s (%s)", id, st.State, st.Err)
		}
		small = append(small, st)
	}
	return flood, small
}

// checkWaitQuantiles asserts the server-reported admission-wait quantiles
// of a tenant — the histogram estimates Stats (and /stats) surface to
// operators — are present and monotone.
func checkWaitQuantiles(t *testing.T, s *Server, tenant string) {
	t.Helper()
	ts, ok := s.Stats().Tenants[tenant]
	if !ok {
		t.Fatalf("no server stats for tenant %q", tenant)
	}
	if ts.QueueWaitP95Ms < ts.QueueWaitP50Ms || ts.QueueWaitP99Ms < ts.QueueWaitP95Ms {
		t.Fatalf("tenant %q wait quantiles not monotone: p50=%v p95=%v p99=%v",
			tenant, ts.QueueWaitP50Ms, ts.QueueWaitP95Ms, ts.QueueWaitP99Ms)
	}
}

// waitP95 is the nearest-rank p95 of the queries' exact admission waits:
// the admission-wait span on each query's trace. The histogram behind
// Stats only places a wait within its bucket, too coarse to order two
// runs whose waits share one.
func waitP95(t *testing.T, s *Server, sts []QueryStatus) time.Duration {
	t.Helper()
	waits := make([]time.Duration, 0, len(sts))
	for _, st := range sts {
		for _, sp := range queryTrace(t, s, st.ID).Children {
			if sp.Name == "admission-wait" {
				waits = append(waits, sp.Duration())
			}
		}
	}
	if len(waits) != len(sts) {
		t.Fatalf("%d admission-wait spans for %d queries", len(waits), len(sts))
	}
	sort.Slice(waits, func(i, j int) bool { return waits[i] < waits[j] })
	return waits[(len(waits)*95+99)/100-1]
}

// TestTenantFairnessVsFIFOBaseline is the governor's acceptance test: with
// one tenant flooding the queue and another submitting a handful of small
// queries behind the flood, the governor's round-robin must interleave the
// small tenant's queries into the flood — deterministically witnessed by
// flood queries still starting after the small tenant has fully finished —
// and the small tenant's p95 queue wait must beat the FIFO baseline, where
// the small queries sit behind the entire flood.
func TestTenantFairnessVsFIFOBaseline(t *testing.T) {
	const floodN, smallN = 8, 3
	progs := map[string]func() *prog.Program{"addmul-small": smallAddMul}

	// Governed run: two tenant labels → two round-robin queues. Simulated
	// device latency makes each query slow enough for the flood to pile up
	// behind the single slot, as it would on real storage.
	gov, err := New(Config{Dir: t.TempDir(), MaxConcurrent: 1, Seed: testSeed, Programs: progs})
	if err != nil {
		t.Fatal(err)
	}
	defer gov.Close()
	gov.store.SetLatency(2*time.Millisecond, 2*time.Millisecond)
	flood, small := fairnessWorkload(t, gov, "flood", "small", floodN, smallN)

	// Interleaving witness: the small tenant finished while flood queries
	// were still being admitted.
	lastSmall := small[0].Finished
	for _, st := range small {
		if st.Finished.After(lastSmall) {
			lastSmall = st.Finished
		}
	}
	floodAfter := 0
	for _, st := range flood {
		if st.Started.After(lastSmall) {
			floodAfter++
		}
	}
	if floodAfter == 0 {
		t.Errorf("no flood query started after the small tenant finished: the flood was not interleaved")
	}

	// Per-tenant stats surfaced the two queues.
	stats := gov.Stats()
	if stats.Tenants["flood"].Finished != floodN || stats.Tenants["small"].Finished != smallN {
		t.Errorf("per-tenant finished counts = %+v", stats.Tenants)
	}
	if stats.Tenants["small"].AvgQueueWaitMs <= 0 {
		t.Errorf("small tenant AvgQueueWaitMs = %v, want > 0 (it did queue)", stats.Tenants["small"].AvgQueueWaitMs)
	}

	// FIFO baseline: the same backlog under one shared tenant label — the
	// original single-queue admission — makes the small queries wait out
	// the whole flood.
	fifo, err := New(Config{Dir: t.TempDir(), MaxConcurrent: 1, Seed: testSeed, Programs: progs})
	if err != nil {
		t.Fatal(err)
	}
	defer fifo.Close()
	fifo.store.SetLatency(2*time.Millisecond, 2*time.Millisecond)
	_, fifoSmall := fairnessWorkload(t, fifo, "", "", floodN, smallN)

	// Compare the small queries' p95 admission waits: the governed small
	// tenant against the same queries inside the FIFO baseline's single
	// queue (every FIFO query lands on the anonymous tenant "").
	checkWaitQuantiles(t, gov, "small")
	checkWaitQuantiles(t, fifo, "")
	govP95, fifoP95 := waitP95(t, gov, small), waitP95(t, fifo, fifoSmall)
	t.Logf("small-tenant p95 queue wait: governed %v vs FIFO %v (flood started after small finished: %d/%d)",
		govP95, fifoP95, floodAfter, floodN)
	if govP95 >= fifoP95 {
		t.Errorf("governed small-tenant p95 wait %v not below the FIFO baseline %v", govP95, fifoP95)
	}
}

// Tenant labels are client-chosen strings, so the state keyed by them must
// stay bounded: past maxTenantLabels distinct labels, new ones share
// overflowTenant in the stats, the admission histogram and the pool's
// per-tenant series, while each query's status keeps the label it sent.
// Every query is submitted before any is waited on, so the server must
// remember them all (RetainOutputs < 0).
func TestTenantLabelsBounded(t *testing.T) {
	const extra = 16
	s, err := New(Config{
		Dir: t.TempDir(), MaxConcurrent: 4, Seed: testSeed, RetainOutputs: -1,
		Programs: map[string]func() *prog.Program{"addmul-small": smallAddMul},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ids := make([]string, 0, maxTenantLabels+extra)
	for i := 0; i < maxTenantLabels+extra; i++ {
		id, err := s.Submit(Request{Program: "addmul-small", Tenant: fmt.Sprintf("t%d", i)})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for i, id := range ids {
		st, err := s.Wait(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != StateDone {
			t.Fatalf("query %s: %s (%s)", id, st.State, st.Err)
		}
		if want := fmt.Sprintf("t%d", i); st.Tenant != want {
			t.Fatalf("query %s reports tenant %q, want the submitted %q", id, st.Tenant, want)
		}
	}

	stats := s.Stats()
	if n := len(stats.Tenants); n > maxTenantLabels+1 {
		t.Errorf("Stats reports %d tenants, want <= %d", n, maxTenantLabels+1)
	}
	if got := stats.Tenants[overflowTenant].Submitted; got != extra {
		t.Errorf("%q tenant submitted = %d, want %d", overflowTenant, got, extra)
	}

	var buf strings.Builder
	if err := s.Metrics().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	series := map[string]int{}
	for _, line := range strings.Split(buf.String(), "\n") {
		if name, _, ok := strings.Cut(line, "{"); ok && strings.Contains(line, `tenant="`) {
			series[name]++
		}
	}
	for _, family := range []string{
		"riotshare_admission_wait_seconds_count",
		"riotshare_pool_tenant_hits_total",
		"riotshare_pool_tenant_misses_total",
		"riotshare_pool_tenant_bytes_cached",
	} {
		if n := series[family]; n == 0 || n > maxTenantLabels+1 {
			t.Errorf("/metrics %s has %d tenant series, want 1..%d", family, n, maxTenantLabels+1)
		}
	}
}
