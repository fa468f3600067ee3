package bench

import (
	"bytes"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"riotshare/internal/core"
	"riotshare/internal/storage"
)

func opts() Options { return Options{Quick: true} }

func TestTablesRender(t *testing.T) {
	var buf bytes.Buffer
	if err := Table2(&buf); err != nil {
		t.Fatal(err)
	}
	if err := Table3(&buf); err != nil {
		t.Fatal(err)
	}
	if err := Table4(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// Paper totals: 25.6-25.7GB for A,B,C; 44.7GB for X.
	for _, want := range []string{"25.7GB", "44.7GB", "A,B,C", "Matrix"} {
		if !strings.Contains(out, want) {
			t.Errorf("tables missing %q in:\n%s", want, out)
		}
	}
}

func TestFig3aShapes(t *testing.T) {
	var buf bytes.Buffer
	if err := Fig3a(&buf, opts()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "♣") {
		t.Error("♣ variant missing")
	}
	// Every plan line carries a sharing set.
	if !strings.Contains(out, "{s1WC→s2RC, s2WE→s2RE, s2WE→s2WE}") {
		t.Errorf("Plan 7 sharing set missing:\n%s", out)
	}
}

func TestFig3bErrorSmall(t *testing.T) {
	var buf bytes.Buffer
	if err := Fig3b(&buf, opts()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	re := regexp.MustCompile(`average prediction error: ([0-9.]+)%`)
	m := re.FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no error summary in:\n%s", out)
	}
	v, _ := strconv.ParseFloat(m[1], 64)
	if v > 2.0 {
		t.Errorf("average prediction error %.2f%% exceeds the paper's regime", v)
	}
}

func TestFig4Fig5Crossover(t *testing.T) {
	// Plan 2 wins under Config A; Plan 3 wins under Config B (§6.2's key
	// observation).
	sel := TwoMMSelectedPlans()
	plan2, plan3 := sel[1], sel[2]
	resA, err := core.OptimizeSubsets(TwoMMPaperA(), core.Options{BindParams: true}, sel)
	if err != nil {
		t.Fatal(err)
	}
	resB, err := core.OptimizeSubsets(TwoMMPaperB(), core.Options{BindParams: true}, sel)
	if err != nil {
		t.Fatal(err)
	}
	a2, a3 := resA.PlanBySharing(plan2...), resA.PlanBySharing(plan3...)
	b2, b3 := resB.PlanBySharing(plan2...), resB.PlanBySharing(plan3...)
	if a2 == nil || a3 == nil || b2 == nil || b3 == nil {
		t.Fatal("selected plans missing")
	}
	if a2.Cost.IOTimeSec >= a3.Cost.IOTimeSec {
		t.Errorf("Config A: Plan 2 (%.0f) should beat Plan 3 (%.0f)", a2.Cost.IOTimeSec, a3.Cost.IOTimeSec)
	}
	if b3.Cost.IOTimeSec >= b2.Cost.IOTimeSec {
		t.Errorf("Config B: Plan 3 (%.0f) should beat Plan 2 (%.0f)", b3.Cost.IOTimeSec, b2.Cost.IOTimeSec)
	}
}

func TestFig6SavingMatchesPaper(t *testing.T) {
	// The paper's headline: the best linreg plan saves 43.8% I/O time over
	// Plan 0 using ~6% more memory.
	res, err := core.OptimizeSubsets(LinRegPaper(), core.Options{BindParams: true}, LinRegSelectedPlans())
	if err != nil {
		t.Fatal(err)
	}
	base := res.Baseline()
	best := &res.Plans[0]
	saving := (1 - best.Cost.IOTimeSec/base.Cost.IOTimeSec) * 100
	if saving < 38 || saving < 0 || saving > 50 {
		t.Errorf("I/O saving %.1f%% far from the paper's 43.8%%", saving)
	}
	memIncrease := (float64(best.Cost.PeakMemoryBytes)/float64(base.Cost.PeakMemoryBytes) - 1) * 100
	if memIncrease < 0 || memIncrease > 20 {
		t.Errorf("memory increase %.1f%% far from the paper's 6.0%%", memIncrease)
	}
	t.Logf("saving %.1f%% (paper 43.8%%), memory +%.1f%% (paper +6.0%%)", saving, memIncrease)
}

func TestCompareOrdering(t *testing.T) {
	var buf bytes.Buffer
	if err := Compare(&buf, opts()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// Extract the "vs best" multipliers in printed order: best, Matlab-like,
	// SciDB-like, LRU.
	re := regexp.MustCompile(`([0-9.]+)\s*x`)
	ms := re.FindAllStringSubmatch(out, -1)
	if len(ms) != 4 {
		t.Fatalf("expected 4 engines, got %d:\n%s", len(ms), out)
	}
	vals := make([]float64, 4)
	for i, m := range ms {
		vals[i], _ = strconv.ParseFloat(m[1], 64)
	}
	if vals[0] != 1.0 {
		t.Errorf("best plan should be 1.00x, got %v", vals[0])
	}
	for i := 1; i < 4; i++ {
		if vals[i] <= 1.0 {
			t.Errorf("engine %d should be worse than the best plan: %vx", i, vals[i])
		}
	}
	// The LRU row is the no-sharing order through buffer.Pool at the best
	// plan's memory; TestLRURespectsCap pins its 576/288 requests.
	if !regexp.MustCompile(`LRU buffer pool, same memory\s+2147\s+2\.61\s*x`).MatchString(out) {
		t.Errorf("LRU row should read 2147 s, 2.61x:\n%s", out)
	}
}

func TestScalesConsistency(t *testing.T) {
	var buf bytes.Buffer
	if err := Scales(&buf, opts()); err != nil {
		t.Fatal(err)
	}
}

func TestOptTimeRuns(t *testing.T) {
	var buf bytes.Buffer
	if err := OptTime(&buf, opts()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "FindSchedule calls") {
		t.Error("optimization-time report incomplete")
	}
}

func TestFillInputsSkipsOutputs(t *testing.T) {
	p := AddMulPaper()
	// FillInputs must not create blocks for written arrays (C, E).
	// Use a throwaway manager.
	dir := t.TempDir()
	m, err := newTestManager(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := m.CreateAll(p); err != nil {
		t.Fatal(err)
	}
	full, err := FillInputs(p, m, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := full["C"]; ok {
		t.Error("C is written by the program and must not be filled")
	}
	for _, name := range []string{"A", "B", "D"} {
		if _, ok := full[name]; !ok {
			t.Errorf("input %s missing", name)
		}
	}
}

func newTestManager(dir string) (*storage.Manager, error) {
	return storage.NewManager(dir, storage.FormatDAF)
}

// Fig4/Fig5/Fig6 end to end (quick mode) through Run, the entry point
// `riotshare exp` uses; an unknown name fails before anything runs.
func TestFigureRunners(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure runners skipped in -short mode")
	}
	var buf bytes.Buffer
	if err := Run(&buf, opts(), "fig4", "fig5", "fig6"); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(buf.String(), "average prediction error"); got != 3 {
		t.Fatalf("three figures should each report prediction error, got %d", got)
	}
	buf.Reset()
	if err := Run(&buf, opts(), "fig3a", "fig7"); err == nil || buf.Len() != 0 {
		t.Fatalf("unknown experiment: err %v, %d bytes written", err, buf.Len())
	}
}
