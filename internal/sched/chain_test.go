package sched

import (
	"context"
	"fmt"
	"testing"
	"time"

	"riotshare/internal/deps"
	"riotshare/internal/ops"
	"riotshare/internal/prog"
)

// addChain builds an elementwise chain of n add statements over a 2×2
// grid of 2×2 blocks: X1 = X0 + B, X2 = X1 + B, …, Xn = Xn-1 + B. Each
// statement adds a loop nest, and the no-sharing baseline's search grows
// about fourfold per statement.
func addChain(n int) *prog.Program {
	p := prog.New(fmt.Sprintf("chain%d", n), "n1", "n2")
	blk, grid := ops.Dims{Rows: 2, Cols: 2}, ops.Dims{Rows: 2, Cols: 2}
	for _, name := range []string{"X0", "B"} {
		p.AddArray(&prog.Array{Name: name, BlockRows: blk.Rows, BlockCols: blk.Cols,
			GridRows: grid.Rows, GridCols: grid.Cols, LogicalBlockBytes: blk.Bytes()})
	}
	for k := 1; k <= n; k++ {
		dst := fmt.Sprintf("X%d", k)
		p.AddArray(&prog.Array{Name: dst, BlockRows: blk.Rows, BlockCols: blk.Cols,
			GridRows: grid.Rows, GridCols: grid.Cols, LogicalBlockBytes: blk.Bytes(), Transient: k < n})
		ops.MatAdd(p, fmt.Sprintf("s%d", k), dst, fmt.Sprintf("X%d", k-1), "B", "n1", "n2")
	}
	return p.Bind("n1", int64(grid.Rows)).Bind("n2", int64(grid.Cols))
}

// One single-share FindSchedule on a 9-statement chain takes seconds, most
// of it inside integer sampling. The search checks its context before every
// sample, so a 200 ms deadline ends it within a second, reporting
// ok=false with the context's error set.
func TestPlanForHonorsDeadlineInsideSampling(t *testing.T) {
	an, err := deps.Analyze(addChain(9), deps.Options{BindParams: true})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, ok := NewSearcher(an).PlanFor(ctx, []int{0})
	if took := time.Since(start); took > time.Second {
		t.Fatalf("PlanFor returned %v after its 200ms deadline was set, want < 1s", took)
	}
	if ok {
		t.Fatal("a PlanFor cut off by its deadline must report ok=false")
	}
	if ctx.Err() == nil {
		t.Fatal("PlanFor returned before its deadline, so it did not test the deadline")
	}
}

// A Memo shared by two Searchers answers the second from the first's
// search, while an answer a canceled context cut short is never stored:
// the next Searcher searches that set itself.
func TestPlanForMemo(t *testing.T) {
	an := addMulAnalysis(t, 3, 4, 2, true)
	memo := NewMemo()
	searcher := func() *Searcher {
		s := NewSearcher(an)
		s.Memo = memo
		return s
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, ok := searcher().PlanFor(canceled, []int{0}); ok {
		t.Fatal("PlanFor on a canceled context found a schedule")
	}
	s1 := searcher()
	want, ok := s1.PlanFor(context.Background(), []int{0})
	if !ok || s1.Stats.FindScheduleCalls != 1 || s1.Stats.MemoHits != 0 {
		t.Fatalf("after a canceled search: ok %v, %+v; want a search of its own", ok, s1.Stats)
	}
	s2 := searcher()
	got, ok := s2.PlanFor(context.Background(), []int{0})
	if !ok || got.Schedule != want.Schedule || s2.Stats.FindScheduleCalls != 0 || s2.Stats.MemoHits != 1 {
		t.Fatalf("memoized set: ok %v, same schedule %v, %+v; want the memo's answer", ok, got.Schedule == want.Schedule, s2.Stats)
	}
}
