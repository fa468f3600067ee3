package server

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"riotshare/internal/blas"
	"riotshare/internal/deps"
	"riotshare/internal/prog"
	"riotshare/internal/storage"
)

// The plan cache must hold at most PlanCacheEntries tables, retire the
// least recently used beyond that, and report size and evictions in both
// Stats and the metrics registry. The same builder is registered under
// three names: plan tables are keyed by program name, while the arrays
// keep one consistent shape in storage.
func TestPlanCacheLRUBound(t *testing.T) {
	s, err := New(Config{
		Dir:  t.TempDir(),
		Seed: testSeed,
		Programs: map[string]func() *prog.Program{
			"am2": smallAddMul,
			"am3": smallAddMul,
			"am4": smallAddMul,
		},
		PlanCacheEntries: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	for _, name := range []string{"am2", "am3", "am4"} {
		id, err := s.Submit(Request{Program: name})
		if err != nil {
			t.Fatal(err)
		}
		if st, err := s.Wait(id); err != nil || st.State != StateDone {
			t.Fatalf("%s: state %v, err %v (%s)", name, st.State, err, st.Err)
		}
	}
	stats := s.Stats()
	if stats.PlanCacheSize > 2 {
		t.Errorf("plan cache size = %d, want <= 2", stats.PlanCacheSize)
	}
	if stats.PlanCacheEvictions < 1 {
		t.Errorf("plan cache evictions = %d, want >= 1", stats.PlanCacheEvictions)
	}
	if stats.PlanCacheMisses != 3 || stats.PlanCacheHits != 0 {
		t.Errorf("hits/misses = %d/%d, want 0/3", stats.PlanCacheHits, stats.PlanCacheMisses)
	}

	// am2 was the least recently used and must have been evicted: a
	// resubmission misses again instead of hitting.
	id, err := s.Submit(Request{Program: "am2"})
	if err != nil {
		t.Fatal(err)
	}
	if st, err := s.Wait(id); err != nil || st.State != StateDone {
		t.Fatalf("am2 again: state %v, err %v (%s)", st.State, err, st.Err)
	}
	stats = s.Stats()
	if stats.PlanCacheMisses != 4 {
		t.Errorf("misses after resubmitting evicted program = %d, want 4", stats.PlanCacheMisses)
	}
	if stats.PlanCacheEvictions < 2 {
		t.Errorf("evictions after fourth miss = %d, want >= 2", stats.PlanCacheEvictions)
	}

	var sb strings.Builder
	if err := s.Metrics().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		"riotshare_plan_cache_entries",
		"riotshare_plan_cache_evictions_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %s", want)
		}
	}
}

// A budgeted server plans cold queries on the greedy tier, serves repeats
// from the cache tier, keeps outputs bit-identical to a standalone run,
// and exposes the tier split in Stats and as separated
// riotshare_planning_seconds{tier} histograms.
func TestGreedyTierPlanning(t *testing.T) {
	_, wantOuts, _ := standaloneRun(t, smallAddMul)

	s, err := New(Config{
		Dir:        t.TempDir(),
		Seed:       testSeed,
		Programs:   map[string]func() *prog.Program{"addmul-small": smallAddMul},
		PlanBudget: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	var ids [2]string
	for i := range ids {
		id, err := s.Submit(Request{Program: "addmul-small"})
		if err != nil {
			t.Fatal(err)
		}
		if st, err := s.Wait(id); err != nil || st.State != StateDone {
			t.Fatalf("query %d: state %v, err %v (%s)", i, st.State, err, st.Err)
		}
		ids[i] = id
	}

	stats := s.Stats()
	if got := stats.PlanningTiers["greedy"].Count; got != 1 {
		t.Errorf("greedy-tier plannings = %d, want 1 (tiers: %+v)", got, stats.PlanningTiers)
	}
	if got := stats.PlanningTiers["cache"].Count; got != 1 {
		t.Errorf("cache-tier plannings = %d, want 1 (tiers: %+v)", got, stats.PlanningTiers)
	}
	if got := stats.PlanningTiers["full"].Count; got != 0 {
		t.Errorf("full-tier plannings = %d, want 0 under a plan budget", got)
	}

	// Greedy-planned queries still produce bit-identical outputs.
	for _, id := range ids {
		for name, want := range wantOuts {
			got, err := s.Output(id, name)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want.Data {
				if got.Data[i] != want.Data[i] {
					t.Fatalf("query %s: %s[%d] = %v, want %v (not bit-identical)",
						id, name, i, got.Data[i], want.Data[i])
				}
			}
		}
	}

	var sb strings.Builder
	if err := s.Metrics().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		`riotshare_planning_seconds_bucket{tier="greedy"`,
		`riotshare_planning_seconds_bucket{tier="cache"`,
		`riotshare_planning_seconds_count{tier="greedy"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing separated tier series %q", want)
		}
	}
}

// N goroutines submit one novel spec at once. The first to reach the plan
// cache plans it; the other N-1 wait on that one entry and read its table
// without re-taking planMu. Every query must run and produce the same
// bits. Run under -race, this guards the write-once entry.
func TestPlanCacheConcurrentMissPlansOnce(t *testing.T) {
	const n = 8
	s, err := New(Config{Dir: t.TempDir(), Seed: testSeed, MaxConcurrent: n})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	ids := make([]string, n)
	errs := make([]error, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range ids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			ids[i], errs[i] = s.Submit(Request{Spec: gridAddSpec(3, 4)})
		}()
	}
	close(start)
	wg.Wait()
	for i, id := range ids {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if st, err := s.Wait(id); err != nil || st.State != StateDone {
			t.Fatalf("query %s: state %v, err %v (%s)", id, st.State, err, st.Err)
		}
	}

	stats := s.Stats()
	if stats.PlanCacheMisses != 1 || stats.PlanCacheHits != n-1 {
		t.Errorf("hits/misses = %d/%d, want %d/1", stats.PlanCacheHits, stats.PlanCacheMisses, n-1)
	}
	want, err := s.Output(ids[0], "C")
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids[1:] {
		got, err := s.Output(id, "C")
		if err != nil {
			t.Fatal(err)
		}
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("query %s: C[%d] = %v, query %s has %v (not bit-identical)",
					id, i, got.Data[i], ids[0], want.Data[i])
			}
		}
	}
}

// addChainSpec is an elementwise chain of n add statements over a 2×2
// grid of 2×2 blocks: X1 = X0 + B, …, Xn = Xn-1 + B, with X1…Xn-1
// transient. Its no-sharing baseline search grows about fourfold per
// statement (tens of seconds at 10, minutes at 12), while lowering and
// running any plan of it takes milliseconds.
func addChainSpec(n int) *ProgramSpec {
	sp := gridAddSpec(2, 2)
	sp.Name = fmt.Sprintf("addchain-%d", n)
	tmpl := sp.Stmts[0]
	sp.Arrays = sp.Arrays[:2]
	sp.Arrays[0].Name = "X0"
	sp.Stmts = nil
	for k := 1; k <= n; k++ {
		dst, src := fmt.Sprintf("X%d", k), fmt.Sprintf("X%d", k-1)
		arr := sp.Arrays[1]
		arr.Name, arr.Transient = dst, k < n
		sp.Arrays = append(sp.Arrays, arr)
		st := tmpl
		st.Name, st.NewNest = fmt.Sprintf("s%d", k), true
		st.Accesses = append([]AccessSpec(nil), tmpl.Accesses...)
		st.Accesses[0].Array, st.Accesses[2].Array = src, dst
		st.Note = dst + "[i,j]=" + src + "[i,j]+B[i,j]"
		sp.Stmts = append(sp.Stmts, st)
	}
	return sp
}

// closeWithin closes the server, failing the test if Close takes longer
// than d. A Close that hangs is left behind rather than waited for.
func closeWithin(t *testing.T, s *Server, d time.Duration) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- s.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("Close: %v", err)
		}
	case <-time.After(d):
		t.Errorf("Close did not return within %v", d)
	}
}

// A 12-statement chain's baseline search alone would take minutes. Under a
// 2 s plan budget the greedy tier answers by itself when the budget runs
// out, with the original schedule as its baseline, so the query is done
// within 3 s of submission and computes Xn = X0 + B + … + B.
func TestBudgetedLongChainRunsWithinBudget(t *testing.T) {
	const n = 12
	s, err := New(Config{Dir: t.TempDir(), Seed: testSeed, PlanBudget: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer closeWithin(t, s, time.Second)

	spec := addChainSpec(n)
	submitted := time.Now()
	id, err := s.Submit(Request{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithDeadline(context.Background(), submitted.Add(3*time.Second))
	defer cancel()
	st, err := s.WaitCtx(ctx, id)
	if err != nil {
		t.Fatalf("query not finished %v after submission: %v", time.Since(submitted), err)
	}
	if st.State != StateDone {
		t.Fatalf("state %v (%s), want done", st.State, st.Err)
	}
	t.Logf("done %v after submission, plan %s", time.Since(submitted), st.PlanLabel)

	p, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	m, err := storage.NewManager(t.TempDir(), storage.FormatDAF)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	in := map[string]*blas.Matrix{}
	for _, name := range []string{"X0", "B"} {
		arr := p.Arrays[name]
		if err := m.Create(arr); err != nil {
			t.Fatal(err)
		}
		if err := FillInput(m, arr, testSeed); err != nil {
			t.Fatal(err)
		}
		if in[name], err = readFullArray(m, arr, name); err != nil {
			t.Fatal(err)
		}
	}
	want := in["X0"].Clone()
	for k := 0; k < n; k++ {
		for i, b := range in["B"].Data {
			want.Data[i] += b
		}
	}
	got, err := s.Output(id, fmt.Sprintf("X%d", n))
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("X%d[%d] = %v, want %v", n, i, got.Data[i], want.Data[i])
		}
	}
}

// Close stops a plan fill still in flight: with no plan budget the
// 12-statement chain's full search would run for minutes, and Close must
// neither wait for it nor let the query succeed. Analysis runs outside any
// deadline, so the test first times one analysis of the spec and lets the
// fill get past its own before closing.
func TestCloseStopsPlanFill(t *testing.T) {
	spec := addChainSpec(12)
	p, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := deps.Analyze(p, deps.Options{BindParams: true}); err != nil {
		t.Fatal(err)
	}
	analysis := time.Since(start)

	s, err := New(Config{Dir: t.TempDir(), Seed: testSeed})
	if err != nil {
		t.Fatal(err)
	}
	id, err := s.Submit(Request{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(2*analysis + 100*time.Millisecond)
	closeWithin(t, s, time.Second)
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	st, err := s.WaitCtx(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateFailed {
		t.Fatalf("state %v, want failed", st.State)
	}
	t.Logf("query failed: %s", st.Err)
}
