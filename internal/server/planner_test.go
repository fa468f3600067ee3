package server

import (
	"strings"
	"sync"
	"testing"
	"time"

	"riotshare/internal/prog"
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
