package sched

import (
	"context"

	"testing"

	"riotshare/internal/deps"
	"riotshare/internal/ops"
	"riotshare/internal/prog"
)

func addMulAnalysis(t *testing.T, n1, n2, n3 int64, bind bool) *deps.Analysis {
	t.Helper()
	p := ops.AddMul(ops.AddMulConfig{
		N1: n1, N2: n2, N3: n3,
		ABBlock: ops.Dims{Rows: 8, Cols: 8},
		DBlock:  ops.Dims{Rows: 8, Cols: 8},
	})
	an, err := deps.Analyze(p, deps.Options{BindParams: bind})
	if err != nil {
		t.Fatal(err)
	}
	return an
}

func sharesByName(t *testing.T, an *deps.Analysis, names ...string) []*deps.CoAccess {
	t.Helper()
	var out []*deps.CoAccess
	for _, n := range names {
		c := an.FindShare(n)
		if c == nil {
			t.Fatalf("share %s not found among %v", n, an.ShareStrings())
		}
		out = append(out, c)
	}
	return out
}

// FindSchedule with no sharing opportunities must always find a legal
// schedule (the baseline plan).
func TestFindScheduleEmpty(t *testing.T) {
	an := addMulAnalysis(t, 3, 4, 2, false)
	s := NewSearcher(an)
	sch, ok := s.FindSchedule(context.Background(), nil)
	if !ok {
		t.Fatal("baseline schedule must exist")
	}
	if err := s.VerifyConcrete(sch); err != nil {
		t.Fatal(err)
	}
}

// The paper's Plan 7 sharing set {s1WC→s2RC, s2WE→s2RE, s2WE→s2WE} must be
// feasible, and the resulting schedule must be legal both symbolically and
// at the instance level.
func TestFindSchedulePlan7(t *testing.T) {
	an := addMulAnalysis(t, 3, 4, 2, false)
	s := NewSearcher(an)
	q := sharesByName(t, an, "s1WC→s2RC", "s2WE→s2RE", "s2WE→s2WE")
	sch, ok := s.FindSchedule(context.Background(), q)
	if !ok {
		t.Fatal("Plan 7 sharing set should be feasible")
	}
	t.Logf("schedule:\n%s", sch.StringFor(an.Prog))
	if err := s.VerifyConcrete(sch); err != nil {
		t.Fatal(err)
	}
	// The schedule must actually realize the opportunities per Table 1:
	// check the pipeline share s1WC→s2RC maps paired instances to times
	// differing only in the constant dimension.
	params := an.Prog.ParamValues()
	c := an.FindShare("s1WC→s2RC")
	pairs, err := c.ConcretePairs()
	if err != nil {
		t.Fatal(err)
	}
	for _, pr := range pairs {
		t1 := sch.TimeOf(c.Src, pr[0], params)
		t2 := sch.TimeOf(c.Tgt, pr[1], params)
		for d := 0; d < len(t1)-1; d++ {
			if t1[d] != t2[d] {
				t.Fatalf("non-self share not co-scheduled: %v vs %v", t1, t2)
			}
		}
		if t2[len(t2)-1] <= t1[len(t1)-1] {
			t.Fatalf("W→R constant order wrong: %v vs %v", t1, t2)
		}
	}
	// And the self share s2WE→s2RE must be consecutive at depth d̃.
	cs := an.FindShare("s2WE→s2RE")
	pairs, err = cs.ConcretePairs()
	if err != nil {
		t.Fatal(err)
	}
	for _, pr := range pairs {
		t1 := sch.TimeOf(cs.Src, pr[0], params)
		t2 := sch.TimeOf(cs.Tgt, pr[1], params)
		dt := len(t1) - 2
		for d := 0; d < dt; d++ {
			if t1[d] != t2[d] {
				t.Fatalf("self share prefix mismatch: %v vs %v", t1, t2)
			}
		}
		if t2[dt]-t1[dt] != 1 {
			t.Fatalf("self share not consecutive: %v vs %v", t1, t2)
		}
	}
}

// Conflicting combination: the E-accumulator self shares require k
// consecutive at d̃ while the D self share requires i consecutive — they
// cannot both hold (§1's incompatibility discussion).
func TestFindScheduleConflict(t *testing.T) {
	an := addMulAnalysis(t, 3, 4, 2, false)
	s := NewSearcher(an)
	q := sharesByName(t, an, "s2WE→s2RE", "s2RD→s2RD")
	if _, ok := s.FindSchedule(context.Background(), q); ok {
		t.Fatal("E-accumulation and D-reuse self shares should conflict")
	}
}

// Apriori search on Example 1 with n3=1 (the paper's §6.1 configuration
// structure): the paper reports 8 legal plans.
func TestAprioriAddMulN3Eq1(t *testing.T) {
	an := addMulAnalysis(t, 12, 12, 1, true)
	s := NewSearcher(an)
	plans, err := s.Search(context.Background(), SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("found %d plans (paper: 8) from %d opportunities %v; %d FindSchedule calls",
		len(plans), len(an.Shares), an.ShareStrings(), s.Stats.FindScheduleCalls)
	if len(plans) < 6 || len(plans) > 12 {
		t.Errorf("plan count %d far from the paper's 8", len(plans))
	}
	// The Plan-7 sharing set must be among the feasible combinations.
	want := map[string]bool{"s1WC→s2RC": true, "s2WE→s2RE": true, "s2WE→s2WE": true}
	found := false
	for _, pl := range plans {
		if len(pl.Shares) != len(want) {
			continue
		}
		all := true
		for _, idx := range pl.Shares {
			if !want[an.Shares[idx].String()] {
				all = false
			}
		}
		if all {
			found = true
		}
	}
	if !found {
		t.Error("the paper's best plan (Plan 7) combination missing from search results")
	}
	// Every plan's schedule must pass instance-level legality.
	for _, pl := range plans {
		if err := s.VerifyConcrete(pl.Schedule); err != nil {
			t.Errorf("plan %s illegal: %v", pl.Label(an), err)
		}
	}
}

// The Apriori property must prune strictly more than the power set would
// explore, while finding the same feasible combinations.
func TestAprioriMatchesNoPruning(t *testing.T) {
	an := addMulAnalysis(t, 3, 3, 1, true)
	s1 := NewSearcher(an)
	pruned, err := s1.Search(context.Background(), SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s2 := NewSearcher(an)
	full, err := s2.Search(context.Background(), SearchOptions{NoPruning: true})
	if err != nil {
		t.Fatal(err)
	}
	key := func(pl Plan) string { return subsetKey(pl.Shares) }
	a := map[string]bool{}
	for _, pl := range pruned {
		a[key(pl)] = true
	}
	b := map[string]bool{}
	for _, pl := range full {
		b[key(pl)] = true
	}
	if len(a) != len(b) {
		t.Fatalf("pruned found %d combos, unpruned %d", len(a), len(b))
	}
	for k := range a {
		if !b[k] {
			t.Fatalf("combo %q found only with pruning", k)
		}
	}
	if s1.Stats.FindScheduleCalls > s2.Stats.FindScheduleCalls {
		t.Errorf("pruning used more calls (%d) than power set (%d)",
			s1.Stats.FindScheduleCalls, s2.Stats.FindScheduleCalls)
	}
}

// Two matrix multiplications: the key cross-statement share plus the
// accumulator shares of both statements (the paper's Plan 2) must be
// feasible; and Plan 3 (share B and D instead) must also be feasible.
func TestTwoMMKeyPlans(t *testing.T) {
	p := ops.TwoMM(ops.TwoMMConfig{
		N1: 2, N2: 3, N3: 2, N4: 3,
		ABlock: ops.Dims{Rows: 4, Cols: 4}, BBlock: ops.Dims{Rows: 4, Cols: 4}, DBlock: ops.Dims{Rows: 4, Cols: 4},
	})
	an, err := deps.Analyze(p, deps.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := NewSearcher(an)

	plan2 := sharesByName(t, an, "s1WC→s1RC", "s1WC→s1WC", "s2WE→s2RE", "s2WE→s2WE", "s1RA→s2RA")
	sch, ok := s.FindSchedule(context.Background(), plan2)
	if !ok {
		t.Fatal("paper Plan 2 (accumulate C,E + share A) should be feasible")
	}
	if err := s.VerifyConcrete(sch); err != nil {
		t.Fatal(err)
	}

	plan3 := sharesByName(t, an, "s1RA→s2RA", "s1RB→s1RB", "s2RD→s2RD")
	sch3, ok := s.FindSchedule(context.Background(), plan3)
	if !ok {
		t.Fatal("paper Plan 3 (share A, B, D) should be feasible")
	}
	if err := s.VerifyConcrete(sch3); err != nil {
		t.Fatal(err)
	}
}

// Linear regression: sharing X reads between the two upstream
// multiplications (s1, s2) must be feasible; sharing X between s1 and s5 is
// impossible (s5 transitively depends on s1's result through U, W, β̂).
func TestLinRegXSharing(t *testing.T) {
	p := ops.LinReg(ops.LinRegConfig{
		N: 4, XBlock: ops.Dims{Rows: 8, Cols: 4}, YBlock: ops.Dims{Rows: 8, Cols: 2},
	})
	an, err := deps.Analyze(p, deps.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := NewSearcher(an)
	good := sharesByName(t, an, "s1RX→s2RX")
	sch, ok := s.FindSchedule(context.Background(), good)
	if !ok {
		t.Fatal("sharing X between s1 and s2 should be feasible")
	}
	if err := s.VerifyConcrete(sch); err != nil {
		t.Fatal(err)
	}
	bad := sharesByName(t, an, "s1RX→s5RX")
	if _, ok := s.FindSchedule(context.Background(), bad); ok {
		t.Fatal("sharing X between s1 and s5 must be infeasible (dependence chain)")
	}
}

// Depth-0 statements (linreg's inversion step) must be schedulable.
func TestDepthZeroStatements(t *testing.T) {
	p := ops.LinReg(ops.LinRegConfig{
		N: 3, XBlock: ops.Dims{Rows: 4, Cols: 2}, YBlock: ops.Dims{Rows: 4, Cols: 2},
	})
	an, err := deps.Analyze(p, deps.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := NewSearcher(an)
	sch, ok := s.FindSchedule(context.Background(), nil)
	if !ok {
		t.Fatal("baseline schedule must exist for linreg")
	}
	if err := s.VerifyConcrete(sch); err != nil {
		t.Fatal(err)
	}
}

// Legal() must reject a hand-built illegal schedule (s2 before s1).
func TestLegalRejectsBadSchedule(t *testing.T) {
	an := addMulAnalysis(t, 2, 2, 1, true)
	s := NewSearcher(an)
	p := an.Prog
	dt := p.DTilde()
	np := p.NumParams()
	bad := prog.NewSchedule(dt + 1)
	for _, st := range p.Stmts {
		rows := make([][]int64, dt+1)
		w := st.Ds() + np + 1
		for d := 0; d < dt; d++ {
			rows[d] = make([]int64, w)
			if d < st.Ds() {
				rows[d][d] = 1
			}
		}
		rows[dt] = make([]int64, w)
		// Reverse the statement order: s1 gets constant 1, s2 gets 0, and
		// first dimension 0 for both — all s2 instances with equal loop
		// prefix run before s1's.
		if st.Name == "s1" {
			rows[dt][w-1] = 1
		}
		bad.SetRows(st.ID, rows)
	}
	if s.Legal(bad) {
		t.Fatal("schedule violating s1WC→s2RC accepted")
	}
}

// Property: every plan the search returns realizes exactly a subset that is
// closed under the Apriori property (all sub-subsets feasible).
func TestSearchResultsClosedDownward(t *testing.T) {
	an := addMulAnalysis(t, 3, 3, 2, true)
	s := NewSearcher(an)
	plans, err := s.Search(context.Background(), SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	feasible := map[string]bool{}
	for _, pl := range plans {
		feasible[subsetKey(pl.Shares)] = true
	}
	for _, pl := range plans {
		for drop := 0; drop < len(pl.Shares); drop++ {
			sub := append(append([]int(nil), pl.Shares[:drop]...), pl.Shares[drop+1:]...)
			if !feasible[subsetKey(sub)] {
				t.Fatalf("plan %v feasible but subset %v missing", pl.Shares, sub)
			}
		}
	}
}

func TestEnumRow(t *testing.T) {
	if got := enumRow(3, 0); len(got) != 1 || got[0] != 0 {
		t.Fatalf("needed=0 should force dependent, got %v", got)
	}
	if got := enumRow(2, 2); len(got) != 1 || got[0] != 1 {
		t.Fatalf("remaining==needed should force independent, got %v", got)
	}
	if got := enumRow(3, 2); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("want {0,1}, got %v", got)
	}
}

// MaxLevel bounds combination size (the §6 early-termination knob).
func TestSearchMaxLevel(t *testing.T) {
	an := addMulAnalysis(t, 3, 3, 1, true)
	s := NewSearcher(an)
	plans, err := s.Search(context.Background(), SearchOptions{MaxLevel: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, pl := range plans {
		if len(pl.Shares) > 1 {
			t.Fatalf("MaxLevel=1 returned a %d-combination", len(pl.Shares))
		}
	}
	full, err := NewSearcher(an).Search(context.Background(), SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) >= len(full) {
		t.Fatalf("level cap should reduce the plan count: %d vs %d", len(plans), len(full))
	}
}

// The call budget must abort runaway searches with an error.
func TestSearchMaxCallsBudget(t *testing.T) {
	an := addMulAnalysis(t, 3, 3, 2, true)
	s := NewSearcher(an)
	if _, err := s.Search(context.Background(), SearchOptions{MaxCalls: 2}); err == nil {
		t.Fatal("tiny budget should error")
	}
}

// The Farkas cache must hit across FindSchedule calls.
func TestFarkasCacheHits(t *testing.T) {
	an := addMulAnalysis(t, 3, 3, 1, true)
	s := NewSearcher(an)
	if _, err := s.Search(context.Background(), SearchOptions{}); err != nil {
		t.Fatal(err)
	}
	if s.Stats.CacheHits == 0 {
		t.Fatal("expected Farkas cache hits across the search")
	}
}
