package core

import (
	"context"
	"testing"

	"riotshare/internal/disk"
	"riotshare/internal/ops"
	"riotshare/internal/prog"
)

// paperAddMul builds Example 1 with the paper's Table 2 logical sizes
// (blocks of 6000×4000 and 4000×5000 elements; 12×12 and 12×1 grids) on
// scaled-down physical data.
func paperAddMul() *prog.Program {
	return ops.AddMul(ops.AddMulConfig{
		N1: 12, N2: 12, N3: 1,
		ABBlock:   ops.Dims{Rows: 6, Cols: 4},
		DBlock:    ops.Dims{Rows: 4, Cols: 5},
		LogicalAB: ops.Dims{Rows: 6000, Cols: 4000},
		LogicalD:  ops.Dims{Rows: 4000, Cols: 5000},
	})
}

// Figure 3's structure: the best plan must realize the paper's Plan 7
// sharing set, cut I/O time by roughly 2-3x versus the original plan, and
// memory footprints must cluster on a few distinct values.
func TestFigure3Shape(t *testing.T) {
	res, err := Optimize(paperAddMul(), Options{BindParams: true})
	if err != nil {
		t.Fatal(err)
	}
	base := res.Baseline()
	best := &res.Plans[0]
	if base == nil {
		t.Fatal("no baseline")
	}
	t.Logf("plans=%d base=%.0fs best=%.0fs (%s) mem base=%dMB best=%dMB",
		len(res.Plans), base.Cost.IOTimeSec, best.Cost.IOTimeSec, best.Label,
		base.Cost.PeakMemoryBytes/(1<<20), best.Cost.PeakMemoryBytes/(1<<20))

	// Paper: Plan 0 = 2394s, Plan 7 = 836s (ratio 2.86); our model must land
	// in the same regime.
	ratio := base.Cost.IOTimeSec / best.Cost.IOTimeSec
	if ratio < 2.0 || ratio > 4.0 {
		t.Errorf("baseline/best I/O time ratio %.2f outside the paper's regime (~2.9)", ratio)
	}
	// Paper: baseline I/O around 2394s and best around 836s with the same
	// matrix sizes and rates; allow ±25%%.
	if base.Cost.IOTimeSec < 1800 || base.Cost.IOTimeSec > 3000 {
		t.Errorf("baseline I/O time %.0fs far from the paper's 2394s", base.Cost.IOTimeSec)
	}
	if best.Cost.IOTimeSec < 600 || best.Cost.IOTimeSec > 1100 {
		t.Errorf("best I/O time %.0fs far from the paper's 836s", best.Cost.IOTimeSec)
	}
	// The best plan realizes the Plan-7 set.
	p7 := res.PlanBySharing("s1WC→s2RC", "s2WE→s2RE", "s2WE→s2WE")
	if p7 == nil {
		t.Fatal("Plan 7 sharing set missing")
	}
	if p7.Cost.IOTimeSec > best.Cost.IOTimeSec {
		t.Errorf("Plan 7 (%.0fs) should be the best plan (%.0fs, %s)",
			p7.Cost.IOTimeSec, best.Cost.IOTimeSec, best.Label)
	}
	// Memory footprints cluster: the paper observes only 3 distinct values
	// across 8 plans.
	distinct := map[int64]bool{}
	for _, pl := range res.Plans {
		distinct[pl.Cost.PeakMemoryBytes] = true
	}
	if len(distinct) > 5 {
		t.Errorf("expected few distinct memory footprints, got %d", len(distinct))
	}
	// Footprints in the paper's figure range roughly 590-820 MB.
	for _, pl := range res.Plans {
		mb := pl.Cost.PeakMemoryBytes / (1 << 20)
		if mb < 500 || mb > 1000 {
			t.Errorf("plan %s memory %dMB outside the paper's 590-820MB band", pl.Label, mb)
		}
	}
}

// The ♣ experiment: enlarging Plan 0's blocks (6000→9000 rows) uses more
// memory than Plan 7 yet still costs far more I/O — blindly enlarging
// blocks is not the best use of extra memory (§6.1).
func TestClubsuitBlockEnlargement(t *testing.T) {
	res, err := Optimize(paperAddMul(), Options{BindParams: true})
	if err != nil {
		t.Fatal(err)
	}
	plan7 := res.PlanBySharing("s1WC→s2RC", "s2WE→s2RE", "s2WE→s2WE")
	if plan7 == nil {
		t.Fatal("missing plan 7")
	}
	// Enlarged-block program: 9000-row blocks, 8 row-blocks ≈ same total.
	big := ops.AddMul(ops.AddMulConfig{
		N1: 8, N2: 12, N3: 1,
		ABBlock:   ops.Dims{Rows: 9, Cols: 4},
		DBlock:    ops.Dims{Rows: 4, Cols: 5},
		LogicalAB: ops.Dims{Rows: 9000, Cols: 4000},
		LogicalD:  ops.Dims{Rows: 4000, Cols: 5000},
	})
	resBig, err := OptimizeSubsets(big, Options{BindParams: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	club := resBig.Baseline()
	if club.Cost.PeakMemoryBytes <= plan7.Cost.PeakMemoryBytes {
		t.Errorf("♣ should use more memory than Plan 7: %d vs %d",
			club.Cost.PeakMemoryBytes, plan7.Cost.PeakMemoryBytes)
	}
	if club.Cost.IOTimeSec <= 1.5*plan7.Cost.IOTimeSec {
		t.Errorf("♣ should still cost far more I/O than Plan 7: %.0fs vs %.0fs",
			club.Cost.IOTimeSec, plan7.Cost.IOTimeSec)
	}
}

// Memory cap selection: with a cap below the best plan's footprint the
// optimizer must pick a cheaper-memory plan.
func TestMemoryCapSelection(t *testing.T) {
	res, err := Optimize(paperAddMul(), Options{BindParams: true})
	if err != nil {
		t.Fatal(err)
	}
	best := &res.Plans[0]
	cap := best.Cost.PeakMemoryBytes - 1
	res2, err := Optimize(paperAddMul(), Options{BindParams: true, MemCapBytes: cap})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Best == nil {
		t.Fatal("some plan must fit")
	}
	if res2.Best.Cost.PeakMemoryBytes > cap {
		t.Fatalf("selected plan exceeds cap: %d > %d", res2.Best.Cost.PeakMemoryBytes, cap)
	}
	if res2.Best.Cost.IOTimeSec < best.Cost.IOTimeSec {
		t.Fatal("capped best cannot beat uncapped best")
	}
}

// Optimization is parametric: the same template at different data scales
// yields the same plan structure (§6's "Datasets of Different Scales"), and
// costs scale with the data.
func TestScaleInvariance(t *testing.T) {
	mk := func(scale int) *prog.Program {
		return ops.AddMul(ops.AddMulConfig{
			N1: 12, N2: 12, N3: 1,
			ABBlock:   ops.Dims{Rows: 6, Cols: 4},
			DBlock:    ops.Dims{Rows: 4, Cols: 5},
			LogicalAB: ops.Dims{Rows: 600 * scale, Cols: 400 * scale},
			LogicalD:  ops.Dims{Rows: 400 * scale, Cols: 500 * scale},
		})
	}
	r1, err := Optimize(mk(1), Options{BindParams: true})
	if err != nil {
		t.Fatal(err)
	}
	r10, err := Optimize(mk(10), Options{BindParams: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Plans) != len(r10.Plans) {
		t.Fatalf("plan counts differ across scales: %d vs %d", len(r1.Plans), len(r10.Plans))
	}
	if r1.Plans[0].Label != r10.Plans[0].Label {
		t.Errorf("best plan changed across scales: %s vs %s", r1.Plans[0].Label, r10.Plans[0].Label)
	}
	// I/O volume scales by 100 (both block dims ×10).
	ratio := float64(r10.Plans[0].Cost.ReadBytes) / float64(r1.Plans[0].Cost.ReadBytes)
	if ratio < 99.9 || ratio > 100.1 {
		t.Errorf("I/O should scale 100x, got %.2f", ratio)
	}
}

// The refined cost model (per-request overhead) must increase estimates and
// can be swapped in freely (§5.4).
func TestRefinedCostModel(t *testing.T) {
	r1, err := OptimizeSubsets(paperAddMul(), Options{BindParams: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := OptimizeSubsets(paperAddMul(), Options{BindParams: true, Model: disk.RefinedModel(0.008)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Plans[0].Cost.IOTimeSec <= r1.Plans[0].Cost.IOTimeSec {
		t.Error("per-request overhead must increase estimated time")
	}
}

// OptimizeBlockSizeCtx (the §7 future-work extension): the joint optimizer
// must return choices sorted by I/O time and include multiple scales.
func TestOptimizeBlockSize(t *testing.T) {
	build := func(scale float64) *prog.Program {
		r := int(6 * scale)
		if r < 1 {
			r = 1
		}
		return ops.AddMul(ops.AddMulConfig{
			N1: 12, N2: 12, N3: 1,
			ABBlock:   ops.Dims{Rows: r, Cols: 4},
			DBlock:    ops.Dims{Rows: 4, Cols: 5},
			LogicalAB: ops.Dims{Rows: 1000 * r, Cols: 4000},
			LogicalD:  ops.Dims{Rows: 4000, Cols: 5000},
		})
	}
	choices, err := OptimizeBlockSizeCtx(context.Background(), build, []float64{0.5, 1, 2}, Options{BindParams: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(choices) != 3 {
		t.Fatalf("want 3 choices, got %d", len(choices))
	}
	for i := 1; i < len(choices); i++ {
		if choices[i-1].Best.Cost.IOTimeSec > choices[i].Best.Cost.IOTimeSec {
			t.Fatal("choices must be sorted by I/O time")
		}
	}
}

// Ablation: disabling multiplicity reduction must not produce more plans
// than the reduced analysis admits fewer opportunities for.
func TestAblationMultiplicityReduction(t *testing.T) {
	p := paperAddMul()
	r1, err := Optimize(p, Options{BindParams: true})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Optimize(paperAddMul(), Options{BindParams: true, SkipMultiplicityReduction: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("with reduction: %d plans (%d calls); without: %d plans (%d calls)",
		len(r1.Plans), r1.SearchStats.FindScheduleCalls,
		len(r2.Plans), r2.SearchStats.FindScheduleCalls)
	if r1.Baseline() == nil || r2.Baseline() == nil {
		t.Fatal("baselines must exist")
	}
}
