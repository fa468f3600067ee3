package exec

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"riotshare/internal/blas"
	"riotshare/internal/codegen"
	"riotshare/internal/core"
	"riotshare/internal/disk"
	"riotshare/internal/ops"
	"riotshare/internal/prog"
	"riotshare/internal/storage"
)

// fillInputs writes random blocks for every array the program never writes
// (the program inputs), returning the full assembled matrices for
// reference computation.
func fillInputs(t *testing.T, p *prog.Program, m storage.Backend, seed int64) map[string]*blas.Matrix {
	t.Helper()
	written := map[string]bool{}
	for _, st := range p.Stmts {
		if w := st.WriteAccess(); w != nil {
			written[w.Array] = true
		}
	}
	rng := rand.New(rand.NewSource(seed))
	full := map[string]*blas.Matrix{}
	// Deterministic fill order so two fills with one seed agree (the
	// parallel-vs-sequential property tests compare across fills).
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
					t.Fatal(err)
				}
			}
		}
	}
	return full
}

// readFull assembles a stored array into one matrix.
func readFull(t *testing.T, p *prog.Program, m storage.Backend, name string) *blas.Matrix {
	t.Helper()
	arr := p.Arrays[name]
	fm := blas.NewMatrix(arr.BlockRows*arr.GridRows, arr.BlockCols*arr.GridCols)
	for br := 0; br < arr.GridRows; br++ {
		for bc := 0; bc < arr.GridCols; bc++ {
			blk, err := m.ReadBlock(name, int64(br), int64(bc))
			if err != nil {
				t.Fatal(err)
			}
			for r := 0; r < arr.BlockRows; r++ {
				for c := 0; c < arr.BlockCols; c++ {
					fm.Set(br*arr.BlockRows+r, bc*arr.BlockCols+c, blk.At(r, c))
				}
			}
		}
	}
	return fm
}

func addMulProgram(n1, n2, n3 int64) *prog.Program {
	return ops.AddMul(ops.AddMulConfig{
		N1: n1, N2: n2, N3: n3,
		ABBlock: ops.Dims{Rows: 6, Cols: 5},
		DBlock:  ops.Dims{Rows: 5, Cols: 4},
	})
}

// Every plan of the add+mul program must produce the same, correct E — and
// its measured I/O volumes must equal the cost model's prediction byte for
// byte (the engine realizes exactly the planned sharing).
func TestAllPlansCorrectAndPredicted(t *testing.T) {
	p := addMulProgram(3, 4, 2)
	res, err := core.Optimize(p, core.Options{BindParams: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Plans) < 4 {
		t.Fatalf("expected several plans, got %d", len(res.Plans))
	}
	for _, pl := range res.Plans {
		m, err := storage.NewManager(t.TempDir(), storage.FormatDAF)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.CreateAll(p); err != nil {
			t.Fatal(err)
		}
		full := fillInputs(t, p, m, 42)
		eng := &Engine{Store: m, Model: disk.PaperModel()}
		r, err := eng.Run(pl.Timeline)
		if err != nil {
			t.Fatalf("plan %s: %v", pl.Label, err)
		}
		if r.ReadBytes != pl.Cost.ReadBytes || r.WriteBytes != pl.Cost.WriteBytes {
			t.Errorf("plan %s: measured I/O (%d,%d) != predicted (%d,%d)",
				pl.Label, r.ReadBytes, r.WriteBytes, pl.Cost.ReadBytes, pl.Cost.WriteBytes)
		}
		if r.ReadReqs != pl.Cost.ReadReqs || r.WriteReqs != pl.Cost.WriteReqs {
			t.Errorf("plan %s: request counts (%d,%d) != predicted (%d,%d)",
				pl.Label, r.ReadReqs, r.WriteReqs, pl.Cost.ReadReqs, pl.Cost.WriteReqs)
		}
		if r.PeakMemoryBytes != pl.Cost.PeakMemoryBytes {
			t.Errorf("plan %s: peak memory %d != predicted %d",
				pl.Label, r.PeakMemoryBytes, pl.Cost.PeakMemoryBytes)
		}
		// Reference: E = (A+B)·D on full matrices.
		sum := blas.NewMatrix(full["A"].Rows, full["A"].Cols)
		blas.Add(sum, full["A"], full["B"])
		want := blas.NewMatrix(full["A"].Rows, full["D"].Cols)
		blas.Gemm(want, sum, false, full["D"], false)
		got := readFull(t, p, m, "E")
		if d := blas.MaxAbsDiff(got, want); d > 1e-9 {
			t.Errorf("plan %s: E wrong by %g", pl.Label, d)
		}
		m.Close()
	}
}

// The best plan must beat the baseline on I/O while staying correct.
func TestBestPlanBeatsBaseline(t *testing.T) {
	p := addMulProgram(4, 4, 1)
	res, err := core.Optimize(p, core.Options{BindParams: true})
	if err != nil {
		t.Fatal(err)
	}
	base := res.Baseline()
	best := &res.Plans[0]
	if base == nil {
		t.Fatal("no baseline plan")
	}
	if best.Cost.IOTimeSec >= base.Cost.IOTimeSec {
		t.Fatalf("best plan (%.1fs) does not beat baseline (%.1fs)",
			best.Cost.IOTimeSec, base.Cost.IOTimeSec)
	}
	t.Logf("baseline %.2fs -> best %.2fs (%s)", base.Cost.IOTimeSec, best.Cost.IOTimeSec, best.Label)
}

// Linear regression end-to-end on real data: β̂ must solve the normal
// equations and R must equal the residual sum of squares, for both the
// baseline and best plans, on both storage formats.
func TestLinRegEndToEnd(t *testing.T) {
	p := ops.LinReg(ops.LinRegConfig{
		N: 4, XBlock: ops.Dims{Rows: 12, Cols: 5}, YBlock: ops.Dims{Rows: 12, Cols: 3},
	})
	// Evaluate the baseline plus a representative best-style plan (share X
	// between the two upstream multiplications and pipeline the chain)
	// without enumerating the full combination space.
	res, err := core.OptimizeSubsets(p, core.Options{BindParams: true}, [][]string{
		{"s1RX→s2RX", "s1WU→s3RU", "s2WV→s4RV", "s3WW→s4RW", "s5WYh→s6RYh", "s6WEv→s7REv"},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, format := range []storage.Format{storage.FormatDAF, storage.FormatLABTree} {
		for _, pl := range []*core.EvaluatedPlan{res.Baseline(), &res.Plans[0]} {
			m, err := storage.NewManager(t.TempDir(), format)
			if err != nil {
				t.Fatal(err)
			}
			if err := m.CreateAll(p); err != nil {
				t.Fatal(err)
			}
			full := fillInputs(t, p, m, 7)
			eng := &Engine{Store: m, Model: disk.PaperModel()}
			r, err := eng.Run(pl.Timeline)
			if err != nil {
				t.Fatalf("%s plan %s: %v", format, pl.Label, err)
			}
			if r.ReadBytes != pl.Cost.ReadBytes || r.WriteBytes != pl.Cost.WriteBytes {
				t.Errorf("%s plan %s: measured I/O (%d,%d) != predicted (%d,%d)",
					format, pl.Label, r.ReadBytes, r.WriteBytes, pl.Cost.ReadBytes, pl.Cost.WriteBytes)
			}
			x, y := full["X"], full["Y"]
			// Reference: β̂ = (XᵀX)⁻¹XᵀY.
			xtX := blas.NewMatrix(x.Cols, x.Cols)
			blas.Gemm(xtX, x, true, x, false)
			inv := blas.NewMatrix(x.Cols, x.Cols)
			if err := blas.Inverse(inv, xtX); err != nil {
				t.Fatal(err)
			}
			xtY := blas.NewMatrix(x.Cols, y.Cols)
			blas.Gemm(xtY, x, true, y, false)
			wantB := blas.NewMatrix(x.Cols, y.Cols)
			blas.Gemm(wantB, inv, false, xtY, false)
			gotB := readFull(t, p, m, "Bh")
			if d := blas.MaxAbsDiff(gotB, wantB); d > 1e-6 {
				t.Errorf("%s plan %s: β̂ wrong by %g", format, pl.Label, d)
			}
			// Reference RSS per response column.
			yh := blas.NewMatrix(y.Rows, y.Cols)
			blas.Gemm(yh, x, false, wantB, false)
			gotR := readFull(t, p, m, "R")
			for j := 0; j < y.Cols; j++ {
				var want float64
				for i := 0; i < y.Rows; i++ {
					d := y.At(i, j) - yh.At(i, j)
					want += d * d
				}
				if math.Abs(gotR.At(0, j)-want) > 1e-6*(1+want) {
					t.Errorf("%s plan %s: RSS[%d] = %g want %g", format, pl.Label, j, gotR.At(0, j), want)
				}
			}
			m.Close()
		}
	}
}

// The memory cap must be enforced at execution time, before any physical
// I/O: a refused plan leaves no partial outputs.
func TestMemoryCapEnforced(t *testing.T) {
	p := addMulProgram(2, 3, 1)
	res, err := core.Optimize(p, core.Options{BindParams: true})
	if err != nil {
		t.Fatal(err)
	}
	pl := &res.Plans[0]
	m, err := storage.NewManager(t.TempDir(), storage.FormatDAF)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := m.CreateAll(p); err != nil {
		t.Fatal(err)
	}
	fillInputs(t, p, m, 3)
	before := m.Stats()
	eng := &Engine{Store: m, Model: disk.PaperModel(), MemCapBytes: pl.Cost.PeakMemoryBytes - 1}
	if _, err := eng.Run(pl.Timeline); err == nil {
		t.Fatal("cap below the plan's peak must fail")
	}
	if after := m.Stats(); after != before {
		t.Fatalf("refused plan touched the store: %+v -> %+v", before, after)
	}
	eng.MemCapBytes = pl.Cost.PeakMemoryBytes
	if _, err := eng.Run(pl.Timeline); err != nil {
		t.Fatalf("cap at the plan's peak must pass: %v", err)
	}
}

// Dead transient writes: with n3=1 the best add+mul plan must never write C
// (footnote 8), and C's store stays empty.
func TestTransientDeadWriteElision(t *testing.T) {
	p := addMulProgram(3, 3, 1)
	res, err := core.Optimize(p, core.Options{BindParams: true})
	if err != nil {
		t.Fatal(err)
	}
	best := &res.Plans[0]
	if got := best.Cost.PerArray["C"]; got.WriteBytes != 0 || got.ReadBytes != 0 {
		t.Fatalf("best plan should never touch C on disk (n3=1): %+v (plan %s)", got, best.Label)
	}
	// The baseline must still write and read C.
	base := res.Baseline()
	if got := base.Cost.PerArray["C"]; got.WriteBytes == 0 || got.ReadBytes == 0 {
		t.Fatalf("baseline should write and read C: %+v", got)
	}
}

// FromMemory without a buffered block is an engine invariant violation and
// must error, not silently read.
func TestFromMemoryInvariant(t *testing.T) {
	p := addMulProgram(2, 2, 1)
	res, err := core.Optimize(p, core.Options{BindParams: true})
	if err != nil {
		t.Fatal(err)
	}
	var withShares *core.EvaluatedPlan
	for i := range res.Plans {
		if len(res.Plans[i].Plan.Shares) > 0 {
			withShares = &res.Plans[i]
			break
		}
	}
	if withShares == nil {
		t.Skip("no sharing plan found")
	}
	// Corrupt the timeline: drop all holds so FromMemory reads have no
	// buffered source.
	bad := *withShares.Timeline
	bad.Holds = nil
	hasFromMemory := false
	for _, acts := range bad.Actions {
		for _, a := range acts {
			if a == codegen.FromMemory {
				hasFromMemory = true
			}
		}
	}
	if !hasFromMemory {
		t.Skip("plan has no FromMemory actions")
	}
	m, err := storage.NewManager(t.TempDir(), storage.FormatDAF)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := m.CreateAll(p); err != nil {
		t.Fatal(err)
	}
	fillInputs(t, p, m, 1)
	eng := &Engine{Store: m, Model: disk.PaperModel()}
	if _, err := eng.Run(&bad); err == nil {
		t.Fatal("corrupted timeline should fail the buffered-block invariant")
	}
}
