package bench

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"sort"
	"time"

	"riotshare/internal/baseline"
	"riotshare/internal/blas"
	"riotshare/internal/core"
	"riotshare/internal/disk"
	"riotshare/internal/exec"
	"riotshare/internal/prog"
	"riotshare/internal/storage"
)

// Options configures the experiment runners.
type Options struct {
	// Quick replaces full Apriori plan-space searches with the selected-plan
	// subsets where the full space is large (the linear-regression search
	// explores ~16k combinations and takes minutes otherwise).
	Quick bool
	// DataDir hosts the physical block files; empty = a fresh temp dir.
	DataDir string
	// Seed for synthetic input data.
	Seed int64
	// Workers selects the pipelined DAG schedule for physical runs
	// (Workers <= 1 keeps the in-order schedule); measured logical
	// volumes are identical either way.
	Workers int
}

func (o Options) dir() (string, func(), error) {
	if o.DataDir != "" {
		return o.DataDir, func() {}, nil
	}
	d, err := os.MkdirTemp("", "riotshare-bench-*")
	if err != nil {
		return "", nil, err
	}
	return d, func() { os.RemoveAll(d) }, nil
}

// actualModel is the measurement-side disk model: the same sustained rates
// as the prediction model plus a per-request overhead, so predicted and
// "actual" I/O times differ by a realistic, small amount (the paper's
// §6.1 reports 1.7% average error from the same effect).
func actualModel() disk.Model { return disk.RefinedModel(0.008) }

// FillInputs writes seeded random blocks for every array the program never
// writes, and returns the assembled full input matrices for reference
// computations.
func FillInputs(p *prog.Program, m storage.Backend, seed int64) (map[string]*blas.Matrix, error) {
	written := map[string]bool{}
	for _, st := range p.Stmts {
		if w := st.WriteAccess(); w != nil {
			written[w.Array] = true
		}
	}
	rng := rand.New(rand.NewSource(seed))
	full := map[string]*blas.Matrix{}
	names := make([]string, 0, len(p.Arrays))
	for name := range p.Arrays {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		arr := p.Arrays[name]
		if written[name] {
			continue
		}
		fm := blas.NewMatrix(arr.BlockRows*arr.GridRows, arr.BlockCols*arr.GridCols)
		for i := range fm.Data {
			fm.Data[i] = rng.NormFloat64()
		}
		full[name] = fm
		for br := 0; br < arr.GridRows; br++ {
			for bc := 0; bc < arr.GridCols; bc++ {
				blk := blas.NewMatrix(arr.BlockRows, arr.BlockCols)
				for r := 0; r < arr.BlockRows; r++ {
					for c := 0; c < arr.BlockCols; c++ {
						blk.Set(r, c, fm.At(br*arr.BlockRows+r, bc*arr.BlockCols+c))
					}
				}
				if err := m.WriteBlock(name, int64(br), int64(bc), blk); err != nil {
					return nil, err
				}
			}
		}
	}
	return full, nil
}

// runPhysical executes a plan against real storage and returns the
// measured result (volumes are logical, paper scale).
func runPhysical(p *prog.Program, pl *core.EvaluatedPlan, dir string, opt Options) (exec.Result, error) {
	sub, err := os.MkdirTemp(dir, "plan-*")
	if err != nil {
		return exec.Result{}, err
	}
	defer os.RemoveAll(sub)
	m, err := storage.NewManager(sub, storage.FormatDAF)
	if err != nil {
		return exec.Result{}, err
	}
	defer m.Close()
	if err := m.CreateAll(p); err != nil {
		return exec.Result{}, err
	}
	if _, err := FillInputs(p, m, opt.Seed); err != nil {
		return exec.Result{}, err
	}
	eng := &exec.Engine{Store: m, Model: actualModel()}
	return eng.RunOptions(pl.Timeline, exec.Options{Workers: opt.Workers})
}

func mb(b int64) float64 { return float64(b) / (1 << 20) }
func gb(b int64) float64 { return float64(b) / (1 << 30) }

// Table2 prints the §6.1 matrix configuration (Table 2).
func Table2(w io.Writer) error {
	p := AddMulPaper()
	return printSizeTable(w, "Table 2: matrix addition and multiplication — matrix sizes", p,
		[][]string{{"A", "B", "C"}, {"D"}, {"E"}})
}

// Table3 prints the §6.2 matrix configurations (Table 3).
func Table3(w io.Writer) error {
	if err := printSizeTable(w, "Table 3 (Config A): two matrix multiplications", TwoMMPaperA(),
		[][]string{{"A"}, {"B", "D"}, {"C", "E"}}); err != nil {
		return err
	}
	return printSizeTable(w, "Table 3 (Config B): two matrix multiplications", TwoMMPaperB(),
		[][]string{{"A"}, {"B"}, {"C"}, {"D"}, {"E"}})
}

// Table4 prints the §6.3 matrix configuration (Table 4).
func Table4(w io.Writer) error {
	return printSizeTable(w, "Table 4: linear regression — matrix sizes", LinRegPaper(),
		[][]string{{"X"}, {"Y", "Yh", "Ev"}, {"U", "W"}, {"V", "Bh"}})
}

func printSizeTable(w io.Writer, title string, p *prog.Program, groups [][]string) error {
	fmt.Fprintf(w, "%s\n", title)
	fmt.Fprintf(w, "%-10s %-18s %-10s %-12s\n", "Matrix", "Logical block", "# Blocks", "Total size")
	for _, g := range groups {
		arr := p.Arrays[g[0]]
		if arr == nil {
			return fmt.Errorf("bench: unknown array %q", g[0])
		}
		names := ""
		for i, n := range g {
			if i > 0 {
				names += ","
			}
			names += n
		}
		total := arr.LogicalBlockBytes * int64(arr.GridRows) * int64(arr.GridCols)
		fmt.Fprintf(w, "%-10s %-18s %-10s %10.1fGB\n",
			names,
			fmt.Sprintf("%d B", arr.LogicalBlockBytes),
			fmt.Sprintf("%dx%d", arr.GridRows, arr.GridCols),
			gb(total))
	}
	fmt.Fprintln(w)
	return nil
}

// Fig3a prints the §6.1 plan space (Figure 3(a)): every legal plan's memory
// footprint and predicted I/O time, plus the ♣ enlarged-block variant.
func Fig3a(w io.Writer, opt Options) error {
	res, err := core.Optimize(AddMulPaper(), core.Options{BindParams: true})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Figure 3(a): add+mul plan space (memory footprint vs predicted I/O time)")
	fmt.Fprintf(w, "%-5s %-12s %-12s %s\n", "plan", "mem (MB)", "I/O (s)", "sharing set")
	for _, pl := range res.Plans {
		fmt.Fprintf(w, "%-5d %-12.0f %-12.0f %s\n", pl.Index, mb(pl.Cost.PeakMemoryBytes), pl.Cost.IOTimeSec, pl.Label)
	}
	club, err := core.OptimizeSubsets(AddMulClubsuit(), core.Options{BindParams: true}, nil)
	if err != nil {
		return err
	}
	c := club.Baseline()
	fmt.Fprintf(w, "%-5s %-12.0f %-12.0f %s\n\n", "♣", mb(c.Cost.PeakMemoryBytes), c.Cost.IOTimeSec,
		"plan 0 with 9000-row blocks")
	return nil
}

// Fig3b executes every §6.1 plan and prints predicted vs actual I/O time
// plus measured CPU time (Figure 3(b)).
func Fig3b(w io.Writer, opt Options) error {
	res, err := core.Optimize(AddMulPaper(), core.Options{BindParams: true})
	if err != nil {
		return err
	}
	dir, cleanup, err := opt.dir()
	if err != nil {
		return err
	}
	defer cleanup()
	fmt.Fprintln(w, "Figure 3(b): add+mul predicted vs actual")
	return predictedVsActual(w, AddMulPaper(), res.Plans, dir, opt)
}

func predictedVsActual(w io.Writer, p *prog.Program, plans []core.EvaluatedPlan, dir string, opt Options) error {
	fmt.Fprintf(w, "%-5s %-14s %-12s %-10s %-10s %s\n",
		"plan", "predicted(s)", "actual(s)", "err(%)", "cpu(ms)", "sharing set")
	var errSum float64
	for i := range plans {
		pl := &plans[i]
		r, err := runPhysical(p, pl, dir, opt)
		if err != nil {
			return fmt.Errorf("plan %s: %w", pl.Label, err)
		}
		if r.ReadBytes != pl.Cost.ReadBytes || r.WriteBytes != pl.Cost.WriteBytes {
			return fmt.Errorf("plan %s: measured I/O volumes diverge from prediction", pl.Label)
		}
		e := math.Abs(pl.Cost.IOTimeSec-r.SimulatedIOSec) / r.SimulatedIOSec * 100
		errSum += e
		fmt.Fprintf(w, "%-5d %-14.0f %-12.0f %-10.2f %-10.1f %s\n",
			pl.Index, pl.Cost.IOTimeSec, r.SimulatedIOSec, e,
			float64(r.CPUTime.Microseconds())/1000, pl.Label)
	}
	fmt.Fprintf(w, "average prediction error: %.2f%% (paper: 1.7%% on this workload)\n\n",
		errSum/float64(len(plans)))
	return nil
}

// Fig4 reproduces §6.2 Configuration A (Figure 4): the plan space and the
// four selected plans, predicted vs actual.
func Fig4(w io.Writer, opt Options) error {
	return twoMMFig(w, opt, "Figure 4 (Config A)", TwoMMPaperA)
}

// Fig5 reproduces §6.2 Configuration B (Figure 5).
func Fig5(w io.Writer, opt Options) error {
	return twoMMFig(w, opt, "Figure 5 (Config B)", TwoMMPaperB)
}

func twoMMFig(w io.Writer, opt Options, title string, mk func() *prog.Program) error {
	res, err := core.Optimize(mk(), core.Options{BindParams: true})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s: plan space — %d plans\n", title, len(res.Plans))
	fmt.Fprintf(w, "%-5s %-12s %-12s %s\n", "plan", "mem (MB)", "I/O (s)", "sharing set")
	for _, pl := range res.Plans {
		fmt.Fprintf(w, "%-5d %-12.0f %-12.0f %s\n", pl.Index, mb(pl.Cost.PeakMemoryBytes), pl.Cost.IOTimeSec, pl.Label)
	}
	fmt.Fprintln(w)

	sel, err := core.OptimizeSubsets(mk(), core.Options{BindParams: true}, TwoMMSelectedPlans())
	if err != nil {
		return err
	}
	dir, cleanup, err := opt.dir()
	if err != nil {
		return err
	}
	defer cleanup()
	fmt.Fprintf(w, "%s: selected plans (0 = no sharing; 1 = accumulate C,E; 2 = 1 + share A; 3 = share A,B,D)\n", title)
	return predictedVsActual(w, mk(), sel.Plans, dir, opt)
}

// Fig6 reproduces §6.3 (Figure 6): the linear-regression plan space (full
// Apriori search unless Quick) and the three selected plans.
func Fig6(w io.Writer, opt Options) error {
	if !opt.Quick {
		res, err := core.Optimize(LinRegPaper(), core.Options{BindParams: true})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "Figure 6(a): linear regression plan space — %d plans (%d FindSchedule calls, %v)\n",
			len(res.Plans), res.SearchStats.FindScheduleCalls, res.OptimizeTime.Round(time.Millisecond))
		best := &res.Plans[0]
		base := res.Baseline()
		fmt.Fprintf(w, "best plan: mem %.0fMB, I/O %.0fs (%s)\n", mb(best.Cost.PeakMemoryBytes), best.Cost.IOTimeSec, best.Label)
		fmt.Fprintf(w, "plan 0:    mem %.0fMB, I/O %.0fs\n", mb(base.Cost.PeakMemoryBytes), base.Cost.IOTimeSec)
		fmt.Fprintf(w, "I/O saving %.1f%% for %.1f%% more memory (paper: 43.8%% saving for 6.0%% more memory)\n\n",
			(1-best.Cost.IOTimeSec/base.Cost.IOTimeSec)*100,
			(float64(best.Cost.PeakMemoryBytes)/float64(base.Cost.PeakMemoryBytes)-1)*100)
	}
	sel, err := core.OptimizeSubsets(LinRegPaper(), core.Options{BindParams: true}, LinRegSelectedPlans())
	if err != nil {
		return err
	}
	dir, cleanup, err := opt.dir()
	if err != nil {
		return err
	}
	defer cleanup()
	fmt.Fprintln(w, "Figure 6(b): selected plans (0 = no sharing; 1 = keep U,V in memory; 2 = best: share X reads + pipeline intermediates)")
	return predictedVsActual(w, LinRegPaper(), sel.Plans, dir, opt)
}

// OptTime reproduces §6's "A Note on Optimization Time": wall-clock
// optimization time per program, and its independence from data scale.
func OptTime(w io.Writer, opt Options) error {
	fmt.Fprintln(w, "Optimization time (§6; paper: 0.6s add+mul, 2.1s two-mm, 156.7s linreg in single-threaded Python)")
	run := func(name string, p *prog.Program, full bool) error {
		t0 := time.Now()
		var calls int
		if full {
			res, err := core.Optimize(p, core.Options{BindParams: true})
			if err != nil {
				return err
			}
			calls = res.SearchStats.FindScheduleCalls
		} else {
			res, err := core.OptimizeSubsets(p, core.Options{BindParams: true}, LinRegSelectedPlans())
			if err != nil {
				return err
			}
			calls = res.SearchStats.FindScheduleCalls
		}
		fmt.Fprintf(w, "%-22s %10v  (%d FindSchedule calls)\n", name, time.Since(t0).Round(time.Millisecond), calls)
		return nil
	}
	if err := run("add+mul (full)", AddMulPaper(), true); err != nil {
		return err
	}
	if err := run("two-mm A (full)", TwoMMPaperA(), true); err != nil {
		return err
	}
	if err := run("two-mm B (full)", TwoMMPaperB(), true); err != nil {
		return err
	}
	lrName := "linreg (selected)"
	lrFull := false
	if !opt.Quick {
		lrName, lrFull = "linreg (full)", true
	}
	if err := run(lrName, LinRegPaper(), lrFull); err != nil {
		return err
	}
	fmt.Fprintln(w)
	return nil
}

// Scales reproduces §6's "Datasets of Different Scales": the same program
// template at different scales yields the same plan structure and the same
// optimization time; costs scale with the data.
func Scales(w io.Writer, opt Options) error {
	fmt.Fprintln(w, "Datasets of different scales (§6): plan structure and optimization time are scale-invariant")
	fmt.Fprintf(w, "%-8s %-8s %-12s %-14s %s\n", "scale", "plans", "opt time", "best I/O (s)", "best plan")
	var prevLabel string
	for _, scale := range []int{1, 5, 10} {
		res, err := core.Optimize(AddMulScaled(scale), core.Options{BindParams: true})
		if err != nil {
			return err
		}
		best := &res.Plans[0]
		fmt.Fprintf(w, "%-8d %-8d %-12v %-14.1f %s\n",
			scale, len(res.Plans), res.OptimizeTime.Round(time.Millisecond), best.Cost.IOTimeSec, best.Label)
		if prevLabel != "" && best.Label != prevLabel {
			return fmt.Errorf("bench: best plan changed across scales")
		}
		prevLabel = best.Label
	}
	fmt.Fprintln(w)
	return nil
}

// Compare reproduces the §6.1 system comparison with the simulated
// stand-ins (DESIGN.md substitution S5): RIOTShare's best plan vs
// operator-at-a-time (Matlab-like), chunk-at-a-time without sharing
// (SciDB-like), and an LRU buffer pool given the best plan's memory.
func Compare(w io.Writer, opt Options) error {
	p := AddMulPaper()
	res, err := core.Optimize(p, core.Options{BindParams: true})
	if err != nil {
		return err
	}
	best := &res.Plans[0]
	opAtATime, err := baseline.OperatorAtATime(AddMulPaper(), core.Options{BindParams: true})
	if err != nil {
		return err
	}
	noShare, err := baseline.NoSharing(AddMulPaper(), core.Options{BindParams: true})
	if err != nil {
		return err
	}
	// LRU run needs physical execution.
	dir, cleanup, err := opt.dir()
	if err != nil {
		return err
	}
	defer cleanup()
	m, err := storage.NewManager(dir, storage.FormatDAF)
	if err != nil {
		return err
	}
	defer m.Close()
	if err := m.CreateAll(p); err != nil {
		return err
	}
	if _, err := FillInputs(p, m, opt.Seed); err != nil {
		return err
	}
	lru := &baseline.LRUEngine{Store: m, Model: disk.PaperModel(), CapBytes: best.Cost.PeakMemoryBytes}
	lruRes, err := lru.Run(res.Baseline().Timeline)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "System comparison (§6.1; Matlab-like = operator-at-a-time blocked, SciDB-like = chunk-at-a-time, LRU = buffer pool with the best plan's memory)")
	fmt.Fprintf(w, "%-34s %-12s %-10s\n", "engine", "I/O (s)", "vs best")
	row := func(name string, io float64) {
		fmt.Fprintf(w, "%-34s %-12.0f %-10.2fx\n", name, io, io/best.Cost.IOTimeSec)
	}
	row("RIOTShare best plan", best.Cost.IOTimeSec)
	row("operator-at-a-time (Matlab-like)", opAtATime.Cost.IOTimeSec)
	row("no sharing (SciDB-like)", noShare.Cost.IOTimeSec)
	row("LRU buffer pool, same memory", lruRes.SimulatedIOSec)
	fmt.Fprintln(w)
	return nil
}

// RunAll executes every experiment in order.
func RunAll(w io.Writer, opt Options) error {
	steps := []struct {
		name string
		fn   func(io.Writer, Options) error
	}{
		{"table2", func(w io.Writer, _ Options) error { return Table2(w) }},
		{"table3", func(w io.Writer, _ Options) error { return Table3(w) }},
		{"table4", func(w io.Writer, _ Options) error { return Table4(w) }},
		{"fig3a", Fig3a},
		{"fig3b", Fig3b},
		{"fig4", Fig4},
		{"fig5", Fig5},
		{"fig6", Fig6},
		{"opttime", OptTime},
		{"scales", Scales},
		{"compare", Compare},
	}
	for _, s := range steps {
		if err := s.fn(w, opt); err != nil {
			return fmt.Errorf("bench: %s: %w", s.name, err)
		}
	}
	return nil
}
