package core

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"riotshare/internal/deps"
	"riotshare/internal/disk"
	"riotshare/internal/ops"
	"riotshare/internal/prog"
	"riotshare/internal/sched"
)

// paperTwoMMB builds the paper's TwoMM configuration B (Table 3) on
// scaled-down physical data, like paperTwoMMA.
func paperTwoMMB() *prog.Program {
	return ops.TwoMM(ops.TwoMMConfig{
		N1: 18, N2: 4, N3: 6, N4: 4,
		ABlock:   ops.Dims{Rows: 2, Cols: 8},
		BBlock:   ops.Dims{Rows: 8, Cols: 6},
		DBlock:   ops.Dims{Rows: 8, Cols: 7},
		LogicalA: ops.Dims{Rows: 2000, Cols: 8000},
		LogicalB: ops.Dims{Rows: 8000, Cols: 6000},
		LogicalD: ops.Dims{Rows: 8000, Cols: 7000},
	})
}

func timelineJSON(t *testing.T, pl *EvaluatedPlan) string {
	t.Helper()
	b, err := json.Marshal(pl.Timeline.Export())
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// The three search strategies feed one pipeline, so where their plan sets
// overlap the tables must be identical: the named strategy given every
// combination the full search found reproduces the full table, every greedy
// plan is a row of the full table, and BestUnder picks what the per-caller
// cap loops it replaced picked.
func TestStrategiesAgree(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func() *prog.Program
	}{
		{"addmul", paperAddMul},
		{"twomm-a", paperTwoMMA},
		{"twomm-b", paperTwoMMB},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opt := Options{BindParams: true}
			full, err := Optimize(tc.mk(), opt)
			if err != nil {
				t.Fatal(err)
			}
			var subsets [][]string
			for _, pl := range full.Plans {
				if len(pl.Plan.Shares) > 0 {
					subsets = append(subsets, labelNames(full.Analysis, pl.Plan))
				}
			}
			sub, err := OptimizeSubsets(tc.mk(), opt, subsets)
			if err != nil {
				t.Fatal(err)
			}
			if len(sub.Plans) != len(full.Plans) {
				t.Fatalf("named strategy: %d plans, full search %d", len(sub.Plans), len(full.Plans))
			}
			for i := range full.Plans {
				f, s := &full.Plans[i], &sub.Plans[i]
				if f.Label != s.Label || f.Index != i || s.Index != i || !reflect.DeepEqual(f.Cost, s.Cost) {
					t.Fatalf("row %d: full %d %s %+v, named %d %s %+v", i, f.Index, f.Label, f.Cost, s.Index, s.Label, s.Cost)
				}
				if timelineJSON(t, f) != timelineJSON(t, s) {
					t.Fatalf("row %d %s: timelines differ", i, f.Label)
				}
			}
			if full.Best == nil || sub.Best == nil || full.Best.Index != sub.Best.Index {
				t.Fatalf("Best: full %v, named %v", full.Best, sub.Best)
			}

			greedy, err := OptimizeGreedy(context.Background(), tc.mk(), opt)
			if err != nil {
				t.Fatal(err)
			}
			for _, g := range greedy.Plans {
				f := full.PlanBySharing(labelNames(greedy.Analysis, g.Plan)...)
				if f == nil {
					t.Fatalf("greedy plan %s is not in the full table", g.Label)
				}
				if !reflect.DeepEqual(f.Cost, g.Cost) {
					t.Errorf("greedy plan %s: cost %+v, full table %+v", g.Label, g.Cost, f.Cost)
				}
			}

			// The loop optimize, server.selectPlan and the CLI each carried.
			oldBest := func(cap int64) *EvaluatedPlan {
				for i := range full.Plans {
					if cap == 0 || full.Plans[i].Cost.PeakMemoryBytes <= cap {
						return &full.Plans[i]
					}
				}
				return nil
			}
			for _, pl := range full.Plans {
				peak := pl.Cost.PeakMemoryBytes
				for _, cap := range []int64{0, peak, peak - 1, peak/1000 + 1} {
					if got, want := full.BestUnder(cap), oldBest(cap); got != want {
						t.Errorf("BestUnder(%d) = %v, cap loop picked %v", cap, got, want)
					}
				}
			}
		})
	}
}

func labelNames(an *deps.Analysis, pl sched.Plan) []string {
	var names []string
	for _, c := range pl.ShareSet(an) {
		names = append(names, c.String())
	}
	return names
}

// Once the context is canceled the evaluator lowers nothing more: handed N
// plans it returns the context's error with the memo still empty. Before the
// evaluator took a context, a search that had finished was lowered and
// costed to completion (~16k plans for linreg) whatever happened to ctx.
func TestEvaluatorCanceled(t *testing.T) {
	an, err := deps.Analyze(paperAddMul(), deps.Options{BindParams: true})
	if err != nil {
		t.Fatal(err)
	}
	plans, err := sched.NewSearcher(an).Search(context.Background(), sched.SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) < 3 {
		t.Fatalf("want the pooled path, got %d plans", len(plans))
	}
	ev := &evaluator{an: an, model: disk.PaperModel(), memo: make(map[string]EvaluatedPlan)}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ev.all(ctx, plans); !errors.Is(err, context.Canceled) {
		t.Fatalf("all on a canceled context: %v, want context.Canceled", err)
	}
	if len(ev.memo) != 0 {
		t.Fatalf("%d plans were lowered after cancellation", len(ev.memo))
	}
	// The same evaluator, with a live context, lowers them all.
	out, err := ev.all(context.Background(), plans)
	if err != nil || len(out) != len(plans) || len(ev.memo) != len(plans) {
		t.Fatalf("live context: %d of %d plans, memo %d, err %v", len(out), len(plans), len(ev.memo), err)
	}
}
