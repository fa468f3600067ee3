package server

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"riotshare/internal/bench"
	"riotshare/internal/blas"
	"riotshare/internal/codegen"
	"riotshare/internal/core"
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

// A server plans cold queries on the greedy tier whatever its plan budget
// (0 is no deadline, not another search), serves repeats from the cache
// tier, keeps outputs bit-identical to a standalone run, and exposes the
// tier split in Stats and as separated riotshare_planning_seconds{tier}
// histograms. No "full" tier exists at any budget.
func TestGreedyTierPlanning(t *testing.T) {
	_, wantOuts, _ := standaloneRun(t, smallAddMul)

	for _, budget := range []time.Duration{0, 10 * time.Second} {
		t.Run(budget.String(), func(t *testing.T) {
			s, err := New(Config{
				Dir:        t.TempDir(),
				Seed:       testSeed,
				Programs:   map[string]func() *prog.Program{"addmul-small": smallAddMul},
				PlanBudget: budget,
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
			if _, ok := stats.PlanningTiers["full"]; ok {
				t.Errorf("a full tier exists (tiers: %+v)", stats.PlanningTiers)
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
			if strings.Contains(text, `tier="full"`) {
				t.Errorf("metrics have a full-tier series")
			}
		})
	}
}

// Named programs are planned like every other one, by the Apriori search
// under the plan budget: under budget 0 and under 10 s, named twomm-a is
// served the plan table (labels and costs) core.Optimize computes from
// scratch, 58 plans whose best beats greedy accretion's. Under 10 s named
// linreg, whose complete search takes minutes, is served a best plan at
// least as cheap as the best of the paper's §6.3 selected plans (Plan 2);
// budget 0 would search it to the end.
func TestNamedProgramsPlannedByFullSearch(t *testing.T) {
	opt := core.Options{BindParams: true}
	want, err := core.Optimize(bench.TwoMMPaperA(), opt)
	if err != nil {
		t.Fatal(err)
	}
	greedy, err := core.OptimizeGreedy(context.Background(), bench.TwoMMPaperA(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Plans) != 58 || want.Best.Cost.IOTimeSec >= greedy.Best.Cost.IOTimeSec {
		t.Fatalf("twomm-a: %d plans, best %.1f s; greedy's best %.1f s: want 58 plans and a cheaper best",
			len(want.Plans), want.Best.Cost.IOTimeSec, greedy.Best.Cost.IOTimeSec)
	}
	selected, err := core.OptimizeSubsets(bench.LinRegPaper(), opt, bench.LinRegSelectedPlans())
	if err != nil {
		t.Fatal(err)
	}
	for _, budget := range []time.Duration{0, 10 * time.Second} {
		t.Run(budget.String(), func(t *testing.T) {
			s, err := New(Config{Dir: t.TempDir(), Seed: testSeed, PlanBudget: budget})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			plan := func(name string) (*core.Result, string) {
				req := Request{Program: name}
				p, err := s.resolve(req)
				if err != nil {
					t.Fatal(err)
				}
				e, tier, err := s.plans(req, p)
				if err != nil {
					t.Fatal(err)
				}
				return e.res, tier
			}
			got, tier := plan("twomm-a")
			if tier != tierGreedy {
				t.Errorf("twomm-a planned on tier %q, want %q", tier, tierGreedy)
			}
			if len(got.Plans) != len(want.Plans) {
				t.Fatalf("twomm-a served %d plans, want the full table's %d", len(got.Plans), len(want.Plans))
			}
			for i := range want.Plans {
				g, w := &got.Plans[i], &want.Plans[i]
				if g.Label != w.Label || !reflect.DeepEqual(g.Cost, w.Cost) {
					t.Errorf("twomm-a plan %d: %s %+v, want %s %+v", i, g.Label, g.Cost, w.Label, w.Cost)
				}
			}
			if budget == 0 {
				return
			}
			lr, _ := plan("linreg")
			if got, sel := lr.Best.Cost.IOTimeSec, selected.Best.Cost.IOTimeSec; got > sel {
				t.Errorf("linreg best plan %s: %.1f s of I/O, want ≤ the selected plans' best %s at %.1f s",
					lr.Best.Label, got, selected.Best.Label, sel)
			}
			t.Logf("linreg: %d plans in %v, best %s at %.1f s", len(lr.Plans), lr.OptimizeTime, lr.Best.Label, lr.Best.Cost.IOTimeSec)
		})
	}
}

// A plan-cache entry holds one timeline, its cheapest plan's. A query
// that forces another plan index has that plan lowered once, however many
// selectors want it at once, and the timeline it gets is the one lowering
// the plan from scratch gives; the query runs it and computes the
// outputs the cheapest plan computes.
func TestPlanEntryKeepsOneTimeline(t *testing.T) {
	s, err := New(Config{
		Dir:      t.TempDir(),
		Seed:     testSeed,
		Programs: map[string]func() *prog.Program{"addmul-small": smallAddMul},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	req := Request{Program: "addmul-small"}
	p, err := s.resolve(req)
	if err != nil {
		t.Fatal(err)
	}
	e, _, err := s.plans(req, p)
	if err != nil {
		t.Fatal(err)
	}
	scratch := servedTable(t, smallAddMul())
	if len(e.res.Plans) != len(scratch.Plans) || len(e.res.Plans) < 3 {
		t.Fatalf("entry holds %d plans, the table from scratch %d (want at least 3)", len(e.res.Plans), len(scratch.Plans))
	}
	for i, pl := range e.res.Plans {
		if pl.Timeline != nil {
			t.Fatalf("plan %d %s keeps its timeline in the table", i, pl.Label)
		}
	}
	if e.best == nil || len(e.lowered) != 0 {
		t.Fatalf("a filled entry holds best %v and %d lowered timelines, want one timeline", e.best != nil, len(e.lowered))
	}
	if d := codegen.Diff(e.best, scratch.Plans[0].Timeline); d != "" {
		t.Fatalf("best timeline differs from scratch: %s", d)
	}

	idx := len(e.res.Plans) - 1
	const selectors = 8
	got := make([]*codegen.Timeline, selectors)
	errs := make([]error, selectors)
	var wg sync.WaitGroup
	for w := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[w], errs[w] = s.timeline(e, idx, req, p)
		}()
	}
	wg.Wait()
	for w := range got {
		if errs[w] != nil {
			t.Fatal(errs[w])
		}
		if got[w] != got[0] {
			t.Fatalf("selector %d got another lowering of plan %d than selector 0", w, idx)
		}
	}
	if len(e.lowered) != 1 {
		t.Fatalf("%d lowered timelines after selecting plan %d, want 1", len(e.lowered), idx)
	}
	want := &scratch.Plans[idx]
	if want.Label != e.res.Plans[idx].Label {
		t.Fatalf("plan %d: %s, from scratch %s", idx, e.res.Plans[idx].Label, want.Label)
	}
	if d := codegen.Diff(got[0], want.Timeline); d != "" {
		t.Fatalf("plan %d %s lowered on demand differs from scratch: %s", idx, want.Label, d)
	}

	_, wantOuts, _ := standaloneRun(t, smallAddMul)
	id, err := s.Submit(Request{Program: "addmul-small", Plan: &idx})
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.Wait(id)
	if err != nil || st.State != StateDone || st.PlanIndex != idx {
		t.Fatalf("forced plan %d: state %v, plan %d, err %v (%s)", idx, st.State, st.PlanIndex, err, st.Err)
	}
	if len(e.lowered) != 1 {
		t.Fatalf("the query lowered plan %d again", idx)
	}
	for name, w := range wantOuts {
		out, err := s.Output(id, name)
		if err != nil {
			t.Fatal(err)
		}
		for i := range w.Data {
			if math.Abs(out.Data[i]-w.Data[i]) > 1e-9*math.Max(1, math.Abs(w.Data[i])) {
				t.Fatalf("plan %d: %s[%d] = %v, cheapest plan %v", idx, name, i, out.Data[i], w.Data[i])
			}
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
	return sizedAddChainSpec(n, 2, 2, "")
}

// sizedAddChainSpec is addChainSpec over a rows×cols grid, every array
// name ending in suffix, so that chains of several sizes can share one
// server's inputs without clashing.
func sizedAddChainSpec(n, rows, cols int, suffix string) *ProgramSpec {
	sp := gridAddSpec(2, 2)
	sp.Name = fmt.Sprintf("addchain-%d%s", n, suffix)
	sp.Bind = map[string]int64{"n1": int64(rows), "n2": int64(cols)}
	tmpl := sp.Stmts[0]
	sp.Arrays = sp.Arrays[:2]
	sp.Arrays[0].Name, sp.Arrays[1].Name = "X0"+suffix, "B"+suffix
	for i := range sp.Arrays {
		sp.Arrays[i].GridRows, sp.Arrays[i].GridCols = rows, cols
	}
	sp.Stmts = nil
	for k := 1; k <= n; k++ {
		dst, src := fmt.Sprintf("X%d%s", k, suffix), fmt.Sprintf("X%d%s", k-1, suffix)
		arr := sp.Arrays[1]
		arr.Name, arr.Transient = dst, k < n
		sp.Arrays = append(sp.Arrays, arr)
		st := tmpl
		st.Name, st.NewNest = fmt.Sprintf("s%d", k), true
		st.Accesses = append([]AccessSpec(nil), tmpl.Accesses...)
		st.Accesses[0].Array, st.Accesses[1].Array, st.Accesses[2].Array = src, "B"+suffix, dst
		st.Note = dst + "[i,j]=" + src + "[i,j]+B" + suffix + "[i,j]"
		sp.Stmts = append(sp.Stmts, st)
	}
	return sp
}

// checkAddChainOutput checks query id's last chain array against
// X0 + B + … + B computed densely, in the same order, from the inputs
// FillInput writes for the spec.
func checkAddChainOutput(t *testing.T, s *Server, id string, spec *ProgramSpec) {
	t.Helper()
	n := len(spec.Stmts)
	p, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	m, err := storage.NewManager(t.TempDir(), storage.FormatDAF)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	in := make([]*blas.Matrix, 2)
	for i, name := range []string{spec.Arrays[0].Name, spec.Arrays[1].Name} {
		arr := p.Arrays[name]
		if err := m.Create(arr); err != nil {
			t.Fatal(err)
		}
		if err := FillInput(m, arr, testSeed); err != nil {
			t.Fatal(err)
		}
		if in[i], err = readFullArray(m, arr, name); err != nil {
			t.Fatal(err)
		}
	}
	want := in[0].Clone()
	for k := 0; k < n; k++ {
		for i, b := range in[1].Data {
			want.Data[i] += b
		}
	}
	out := spec.Arrays[len(spec.Arrays)-1].Name
	got, err := s.Output(id, out)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Data) != len(want.Data) {
		t.Fatalf("%s: %d elements, want %d", out, len(got.Data), len(want.Data))
	}
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("%s[%d] = %v, want %v", out, i, got.Data[i], want.Data[i])
		}
	}
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
	checkAddChainOutput(t, s, id, spec)
}

// Close stops a plan fill still in flight, analysis included: with no
// plan budget the 12-statement chain's full search would run for
// minutes, and Close, 100 ms after the submission, must neither wait for
// the fill nor let the query succeed.
func TestCloseStopsPlanFill(t *testing.T) {
	s, err := New(Config{Dir: t.TempDir(), Seed: testSeed})
	if err != nil {
		t.Fatal(err)
	}
	id, err := s.Submit(Request{Spec: addChainSpec(12)})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond)
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

// The plan budget bounds the whole fill, analysis included, and a budget
// the analysis outlasts still serves the query, with the original
// schedule. A 16-statement chain's analysis takes ~0.9 s, over the
// daemon's default 250 ms budget; a 64-statement chain's takes over 10 s,
// over a 2 s budget. Each query is done within a second of its budget and
// computes Xn = X0 + B + … + B.
func TestBudgetedAnalysisEndsWithinBudget(t *testing.T) {
	for _, tc := range []struct {
		n      int
		budget time.Duration
	}{
		{16, 250 * time.Millisecond},
		{64, 2 * time.Second},
	} {
		t.Run(fmt.Sprintf("chain-%d", tc.n), func(t *testing.T) {
			s, err := New(Config{Dir: t.TempDir(), Seed: testSeed, PlanBudget: tc.budget})
			if err != nil {
				t.Fatal(err)
			}
			defer closeWithin(t, s, time.Second)

			spec := addChainSpec(tc.n)
			submitted := time.Now()
			id, err := s.Submit(Request{Spec: spec})
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithDeadline(context.Background(), submitted.Add(tc.budget+time.Second))
			defer cancel()
			st, err := s.WaitCtx(ctx, id)
			if err != nil {
				t.Fatalf("query not finished %v after submission: %v", time.Since(submitted), err)
			}
			if st.State != StateDone {
				t.Fatalf("state %v (%s), want done", st.State, st.Err)
			}
			t.Logf("done %v after submission, plan %s", time.Since(submitted), st.PlanLabel)
			checkAddChainOutput(t, s, id, spec)
		})
	}
}

// Eight fills of one program shape at eight sizes, submitted at once:
// exactly one prepares the shape, the other seven wait for it and bind it
// at their own sizes, and every output is the chain's sum computed
// densely from the filled inputs. Run under -race, this guards the
// write-once shape entry and the shared schedule-search memos.
func TestPlanShapeConcurrentSizes(t *testing.T) {
	sizes := [][2]int{{1, 1}, {1, 2}, {2, 1}, {2, 2}, {2, 3}, {3, 2}, {3, 3}, {1, 3}}
	s, err := New(Config{Dir: t.TempDir(), Seed: testSeed, MaxConcurrent: len(sizes)})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	specs := make([]*ProgramSpec, len(sizes))
	ids := make([]string, len(sizes))
	errs := make([]error, len(sizes))
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i, sz := range sizes {
		specs[i] = sizedAddChainSpec(2, sz[0], sz[1], fmt.Sprintf("_%dx%d", sz[0], sz[1]))
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			ids[i], errs[i] = s.Submit(Request{Spec: specs[i]})
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
		checkAddChainOutput(t, s, id, specs[i])
	}
	st := s.Stats()
	if st.PlanShapeMisses != 1 || st.PlanShapeHits != int64(len(sizes)-1) || st.PlanShapeEntries != 1 {
		t.Errorf("shape hits/misses/entries = %d/%d/%d, want %d/1/1",
			st.PlanShapeHits, st.PlanShapeMisses, st.PlanShapeEntries, len(sizes)-1)
	}
	if got := st.PlanningTiers[tierShape].Count; got != int64(len(sizes)-1) {
		t.Errorf("shape-tier plannings = %d, want %d (tiers: %+v)", got, len(sizes)-1, st.PlanningTiers)
	}
}

// Specs that differ only in what planning reads at a program's own sizes
// share one program-shape key; any change to the program's structure
// gives another.
func TestProgramShapeKey(t *testing.T) {
	base := func() *ProgramSpec { return sizedAddChainSpec(2, 2, 3, "") }
	key := base().programShapeKey()
	same := map[string]func(sp *ProgramSpec){
		"program name": func(sp *ProgramSpec) { sp.Name = "other" },
		"array names": func(sp *ProgramSpec) {
			for i := range sp.Arrays {
				old := sp.Arrays[i].Name
				sp.Arrays[i].Name = "renamed" + old
				for s := range sp.Stmts {
					for a := range sp.Stmts[s].Accesses {
						if sp.Stmts[s].Accesses[a].Array == old {
							sp.Stmts[s].Accesses[a].Array = "renamed" + old
						}
					}
				}
			}
		},
		"block sizes":         func(sp *ProgramSpec) { sp.Arrays[0].BlockRows, sp.Arrays[1].BlockCols = 7, 9 },
		"grid sizes":          func(sp *ProgramSpec) { sp.Arrays[2].GridRows, sp.Arrays[3].GridCols = 5, 6 },
		"bind values":         func(sp *ProgramSpec) { sp.Bind["n1"], sp.Bind["n2"] = 1, 4 },
		"logical block bytes": func(sp *ProgramSpec) { sp.Arrays[1].LogicalBlockBytes = 1 << 20 },
		"notes":               func(sp *ProgramSpec) { sp.Stmts[0].Note = "changed" },
	}
	for name, change := range same {
		sp := base()
		change(sp)
		if got := sp.programShapeKey(); got != key {
			t.Errorf("%s: shape key changed:\n%s\n%s", name, key, got)
		}
	}
	expr := func(terms map[string]int64, k int64) ExprSpec { return ExprSpec{Terms: terms, K: k} }
	different := map[string]func(sp *ProgramSpec){
		"kernel":      func(sp *ProgramSpec) { sp.Stmts[1].Kernel = "sub" },
		"transient":   func(sp *ProgramSpec) { sp.Arrays[2].Transient = false },
		"access type": func(sp *ProgramSpec) { sp.Stmts[0].Accesses[1].Type = "write" },
		"access array": func(sp *ProgramSpec) {
			sp.Stmts[1].Accesses[1].Array = sp.Arrays[0].Name
		},
		"expression": func(sp *ProgramSpec) { sp.Stmts[0].Accesses[0].Row = expr(map[string]int64{"j": 1}, 0) },
		"guard": func(sp *ProgramSpec) {
			sp.Stmts[0].Accesses[0].When = []CondSpec{{Expr: expr(map[string]int64{"i": 1}, -1)}}
		},
		"range":    func(sp *ProgramSpec) { sp.Stmts[1].Ranges[0].Lo = expr(nil, 1) },
		"new nest": func(sp *ProgramSpec) { sp.Stmts[1].NewNest = false },
		"parameter count": func(sp *ProgramSpec) {
			sp.Params = append(sp.Params, "n3")
			sp.Bind["n3"] = 2
		},
		"statement order": func(sp *ProgramSpec) { sp.Stmts[0], sp.Stmts[1] = sp.Stmts[1], sp.Stmts[0] },
	}
	for name, change := range different {
		sp := base()
		change(sp)
		if sp.programShapeKey() == key {
			t.Errorf("%s: shape key unchanged", name)
		}
	}
}
