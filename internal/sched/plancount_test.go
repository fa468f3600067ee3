package sched

import (
	"context"

	"testing"
	"time"

	"riotshare/internal/deps"
	"riotshare/internal/ops"
)

// TestPlanCountsPaperConfigs reproduces the search-space statistics of §6
// on the paper's three programs. The full linear-regression search
// explores its ~2^16 combination space and takes over a minute — the space
// depends on the program's structure, not its matrix sizes — so -short
// runs it with the paper's own §6 mitigation instead, terminating the
// enumeration early (a MaxCalls cap), alongside reduced problem sizes for
// the other two.
// Every search path still executes; the full statistics run locally.
func TestPlanCountsPaperConfigs(t *testing.T) {
	addMulN1, addMulN2 := int64(12), int64(12)
	twomm := ops.TwoMMConfig{N1: 6, N2: 10, N3: 6, N4: 10,
		ABlock: ops.Dims{Rows: 4, Cols: 4}, BBlock: ops.Dims{Rows: 4, Cols: 4}, DBlock: ops.Dims{Rows: 4, Cols: 4}}
	linreg := ops.LinRegConfig{N: 25, XBlock: ops.Dims{Rows: 60, Cols: 40}, YBlock: ops.Dims{Rows: 60, Cols: 4}}
	var linregOpt SearchOptions
	if testing.Short() {
		addMulN1, addMulN2 = 4, 4
		twomm = ops.TwoMMConfig{N1: 3, N2: 4, N3: 3, N4: 4,
			ABlock: ops.Dims{Rows: 4, Cols: 4}, BBlock: ops.Dims{Rows: 4, Cols: 4}, DBlock: ops.Dims{Rows: 4, Cols: 4}}
		linreg = ops.LinRegConfig{N: 4, XBlock: ops.Dims{Rows: 12, Cols: 5}, YBlock: ops.Dims{Rows: 12, Cols: 3}}
		linregOpt.MaxCalls = 200
	}

	// Example 1 paper config: 12x12 blocks, n3=1.
	an := addMulAnalysis(t, addMulN1, addMulN2, 1, true)
	s := NewSearcher(an)
	t0 := time.Now()
	plans, err := s.Search(context.Background(), SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("addmul n3=1: %d opportunities %v -> %d plans in %v (%d calls)",
		len(an.Shares), an.ShareStrings(), len(plans), time.Since(t0), s.Stats.FindScheduleCalls)

	// TwoMM config A: 6x6 etc.
	p2 := ops.TwoMM(twomm)
	an2, err := deps.Analyze(p2, deps.Options{BindParams: true})
	if err != nil {
		t.Fatal(err)
	}
	s2 := NewSearcher(an2)
	t0 = time.Now()
	plans2, err := s2.Search(context.Background(), SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("twomm: %d opportunities -> %d plans (paper: 40) in %v (%d calls)",
		len(an2.Shares), len(plans2), time.Since(t0), s2.Stats.FindScheduleCalls)

	// LinReg. The full (non-short) search takes on the order of 80s; give
	// it its own deadline so a regression fails here with a clear cancel
	// error instead of hanging the suite until the go test timeout.
	p3 := ops.LinReg(linreg)
	an3, err := deps.Analyze(p3, deps.Options{BindParams: true})
	if err != nil {
		t.Fatal(err)
	}
	s3 := NewSearcher(an3)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	t0 = time.Now()
	plans3, err := s3.Search(ctx, linregOpt)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("linreg: %d opportunities -> %d plans in %v (%d calls; paper: 2^16 space, 94%% pruned)",
		len(an3.Shares), len(plans3), time.Since(t0), s3.Stats.FindScheduleCalls)
}
