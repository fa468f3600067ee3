package core

import (
	"context"
	"testing"
	"time"

	"riotshare/internal/ops"
	"riotshare/internal/prog"
)

// GreedyIORatioBound is the documented plan-quality bound of the tier-2
// greedy planner (docs/planner.md): the greedy plan's logical I/O is
// within this factor of the full search's best plan on the paper's
// workloads. Observed: 1.00 on addmul and linreg, 1.28 on twomm-a (the
// greedy chain commits to the read-sharing family where the optimum mixes
// write-backed sharing) — the same regime as Janus-Datalog's ~13%-of-
// optimal greedy planner. Closing the gap is the planning item of
// ROADMAP.md: choose the full search by the number of sharing
// opportunities, measured on the cold-plan workload.
const GreedyIORatioBound = 1.30

// paperTwoMMA builds the paper's TwoMM configuration A (Figure 5) on
// scaled-down physical data, like paperAddMul.
func paperTwoMMA() *prog.Program {
	return ops.TwoMM(ops.TwoMMConfig{
		N1: 6, N2: 10, N3: 6, N4: 10,
		ABlock:   ops.Dims{Rows: 8, Cols: 7},
		BBlock:   ops.Dims{Rows: 7, Cols: 3},
		DBlock:   ops.Dims{Rows: 7, Cols: 3},
		LogicalA: ops.Dims{Rows: 8000, Cols: 7000},
		LogicalB: ops.Dims{Rows: 7000, Cols: 3000},
		LogicalD: ops.Dims{Rows: 7000, Cols: 3000},
	})
}

// comparePlanQuality runs both planners on one program and asserts the
// greedy plan's logical I/O stays within GreedyIORatioBound of the full
// search's best plan, at strictly fewer FindSchedule calls. Returns the
// two optimization times for callers that also bound planning time.
func comparePlanQuality(t *testing.T, name string, p *prog.Program, fullTimeout time.Duration) (greedyTime, fullTime time.Duration) {
	t.Helper()
	greedy, err := OptimizeGreedy(context.Background(), p, Options{BindParams: true})
	if err != nil {
		t.Fatalf("%s greedy: %v", name, err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), fullTimeout)
	defer cancel()
	full, err := OptimizeCtx(ctx, p, Options{BindParams: true})
	if err != nil {
		t.Fatalf("%s full: %v", name, err)
	}
	if greedy.Best == nil || full.Best == nil {
		t.Fatalf("%s: missing best plan (greedy %v, full %v)", name, greedy.Best, full.Best)
	}
	gIO := greedy.Best.Cost.LogicalIOBytes()
	fIO := full.Best.Cost.LogicalIOBytes()
	ratio := float64(gIO) / float64(fIO)
	t.Logf("%s: greedy %s %.1fGB in %v (%d calls) vs full %s %.1fGB in %v (%d calls) — IO ratio %.3f",
		name, greedy.Best.Label, float64(gIO)/1e9, greedy.OptimizeTime, greedy.SearchStats.FindScheduleCalls,
		full.Best.Label, float64(fIO)/1e9, full.OptimizeTime, full.SearchStats.FindScheduleCalls, ratio)
	if ratio > GreedyIORatioBound {
		t.Errorf("%s: greedy plan's logical I/O is %.3fx the full search's best (bound %.2f)",
			name, ratio, GreedyIORatioBound)
	}
	if ratio < 1.0 {
		t.Errorf("%s: greedy plan beats the full enumeration (%.3fx) — the full search missed a plan", name, ratio)
	}
	// The greedy pass runs O(seeds·n) schedule searches per fixpoint pass;
	// the win over the full search's exponential enumeration only shows at
	// linreg scale (thousands of calls), so compare only there.
	if full.SearchStats.FindScheduleCalls > 100 &&
		greedy.SearchStats.FindScheduleCalls*10 >= full.SearchStats.FindScheduleCalls {
		t.Errorf("%s: greedy used %d FindSchedule calls, full search %d",
			name, greedy.SearchStats.FindScheduleCalls, full.SearchStats.FindScheduleCalls)
	}
	// The greedy table must still resolve a plan under any memory cap the
	// full table would (its baseline is the fallback).
	if greedy.Baseline() == nil {
		t.Errorf("%s: greedy table is missing the baseline plan", name)
	}
	return greedy.OptimizeTime, full.OptimizeTime
}

// Plan quality on the paper's Example 1 and TwoMM workloads: the greedy
// tier must stay within the documented logical-I/O bound of the full
// Apriori search.
func TestGreedyPlanQualityPaperConfigs(t *testing.T) {
	comparePlanQuality(t, "addmul", paperAddMul(), time.Minute)
	comparePlanQuality(t, "twomm-a", paperTwoMMA(), time.Minute)
}

// The linear-regression program is the workload the greedy tier exists
// for: its full search explores a ~2^16 combination space for over a
// minute, while the greedy pass runs O(n) schedule searches. The
// acceptance bar is planning in under 1% of the full search's time while
// staying within the documented I/O ratio. The full search runs under its
// own deadline so a search regression fails loudly rather than hanging.
func TestGreedyPlanQualityLinReg(t *testing.T) {
	if testing.Short() {
		t.Skip("full linreg plan-space search takes minutes; run without -short")
	}
	p := ops.LinReg(ops.LinRegConfig{
		N:        25,
		XBlock:   ops.Dims{Rows: 60, Cols: 40},
		YBlock:   ops.Dims{Rows: 60, Cols: 4},
		LogicalX: ops.Dims{Rows: 60000, Cols: 4000},
		LogicalY: ops.Dims{Rows: 60000, Cols: 400},
	})
	greedyTime, fullTime := comparePlanQuality(t, "linreg", p, 10*time.Minute)
	if frac := greedyTime.Seconds() / fullTime.Seconds(); frac > 0.01 {
		t.Errorf("greedy planning took %.2f%% of the full search's time (bar: < 1%%): %v vs %v",
			frac*100, greedyTime, fullTime)
	}
}
