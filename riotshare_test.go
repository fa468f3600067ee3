package riotshare_test

import (
	"context"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"riotshare"
	"riotshare/internal/blas"
)

// End-to-end through the public API only: build Example 1, optimize,
// execute the best plan, verify the numbers.
func TestPublicAPIQuickstart(t *testing.T) {
	p := riotshare.AddMul(riotshare.AddMulConfig{
		N1: 3, N2: 4, N3: 2,
		ABBlock: riotshare.Dims{Rows: 6, Cols: 5},
		DBlock:  riotshare.Dims{Rows: 5, Cols: 4},
	})
	res, err := riotshare.Optimize(p, riotshare.Options{BindParams: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best == nil || len(res.Plans) < 2 {
		t.Fatalf("expected multiple plans, got %d", len(res.Plans))
	}
	store, err := riotshare.NewStorage(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if err := store.CreateAll(p); err != nil {
		t.Fatal(err)
	}
	// Store random inputs.
	rng := rand.New(rand.NewSource(2))
	fill := func(name string) *blas.Matrix {
		arr := p.Arrays[name]
		fm := blas.NewMatrix(arr.BlockRows*arr.GridRows, arr.BlockCols*arr.GridCols)
		for i := range fm.Data {
			fm.Data[i] = rng.NormFloat64()
		}
		for br := 0; br < arr.GridRows; br++ {
			for bc := 0; bc < arr.GridCols; bc++ {
				blk := blas.NewMatrix(arr.BlockRows, arr.BlockCols)
				for r := 0; r < arr.BlockRows; r++ {
					for c := 0; c < arr.BlockCols; c++ {
						blk.Set(r, c, fm.At(br*arr.BlockRows+r, bc*arr.BlockCols+c))
					}
				}
				if err := store.WriteBlock(name, int64(br), int64(bc), blk); err != nil {
					t.Fatal(err)
				}
			}
		}
		return fm
	}
	a, b, d := fill("A"), fill("B"), fill("D")

	r, err := riotshare.Execute(res.Best, store, riotshare.PaperDiskModel(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.ReadBytes != res.Best.Cost.ReadBytes {
		t.Fatalf("measured reads %d != predicted %d", r.ReadBytes, res.Best.Cost.ReadBytes)
	}
	// Verify E = (A+B)·D.
	sum := blas.NewMatrix(a.Rows, a.Cols)
	blas.Add(sum, a, b)
	want := blas.NewMatrix(a.Rows, d.Cols)
	blas.Gemm(want, sum, false, d, false)
	arr := p.Arrays["E"]
	for br := 0; br < arr.GridRows; br++ {
		for bc := 0; bc < arr.GridCols; bc++ {
			blk, err := store.ReadBlock("E", int64(br), int64(bc))
			if err != nil {
				t.Fatal(err)
			}
			for rr := 0; rr < arr.BlockRows; rr++ {
				for cc := 0; cc < arr.BlockCols; cc++ {
					w := want.At(br*arr.BlockRows+rr, bc*arr.BlockCols+cc)
					if df := blk.At(rr, cc) - w; df > 1e-9 || df < -1e-9 {
						t.Fatalf("E wrong at block (%d,%d)", br, bc)
					}
				}
			}
		}
	}
}

// A user-defined operator through the public builder API must be analyzed
// and optimized like any built-in (the extensibility requirement of §2).
func TestPublicAPIUserDefinedOperator(t *testing.T) {
	p := riotshare.NewProgram("stencilish", "n")
	p.AddArray(&riotshare.Array{Name: "Src", BlockRows: 4, BlockCols: 4, GridRows: 8, GridCols: 1})
	p.AddArray(&riotshare.Array{Name: "Dst", BlockRows: 4, BlockCols: 4, GridRows: 8, GridCols: 1})
	p.NewNest()
	s := p.NewStatement("s1", "i")
	s.Range("i", riotshare.C(0), riotshare.V("n").AddK(-1))
	s.Access(riotshare.Read, "Src", riotshare.V("i"), riotshare.C(0))
	s.Access(riotshare.Read, "Src", riotshare.V("i").AddK(1), riotshare.C(0))
	s.Access(riotshare.Write, "Dst", riotshare.V("i"), riotshare.C(0))
	s.SetKernel("add").SetNote("Dst[i]=Src[i]+Src[i+1]")
	p.Bind("n", 8)

	res, err := riotshare.Optimize(p, riotshare.Options{BindParams: true})
	if err != nil {
		t.Fatal(err)
	}
	// The overlapping window Src[i+1]/Src[i] is an R→R sharing opportunity;
	// the optimizer must find a plan exploiting it.
	if len(res.Plans) < 2 {
		t.Fatalf("expected a sharing plan for the overlapping window, got %d plans", len(res.Plans))
	}
	best := &res.Plans[0]
	base := res.Baseline()
	if best.Cost.ReadBytes >= base.Cost.ReadBytes {
		t.Errorf("window reuse should cut reads: %d vs %d", best.Cost.ReadBytes, base.Cost.ReadBytes)
	}
}

// Pseudocode rendering must reconstruct loop structure.
func TestPseudocode(t *testing.T) {
	p := riotshare.AddMul(riotshare.AddMulConfig{
		N1: 3, N2: 4, N3: 2,
		ABBlock: riotshare.Dims{Rows: 4, Cols: 4},
		DBlock:  riotshare.Dims{Rows: 4, Cols: 4},
	})
	res, err := riotshare.Optimize(p, riotshare.Options{BindParams: true})
	if err != nil {
		t.Fatal(err)
	}
	code := riotshare.Pseudocode(res.Best)
	if !strings.Contains(code, "for ") {
		t.Fatalf("pseudocode should contain loops:\n%s", code)
	}
	if !strings.Contains(code, "s1") || !strings.Contains(code, "s2") {
		t.Fatalf("pseudocode should reference both statements:\n%s", code)
	}
	t.Logf("best plan pseudocode:\n%s", code)
}

// The block-size co-optimizer is reachable through the public API.
func TestPublicOptimizeBlockSize(t *testing.T) {
	build := func(scale float64) *riotshare.Program {
		r := int(6 * scale)
		if r < 1 {
			r = 1
		}
		return riotshare.AddMul(riotshare.AddMulConfig{
			N1: 6, N2: 6, N3: 1,
			ABBlock: riotshare.Dims{Rows: r, Cols: 4},
			DBlock:  riotshare.Dims{Rows: 4, Cols: 5},
		})
	}
	choices, err := riotshare.OptimizeBlockSizeCtx(context.Background(), build, []float64{0.5, 1}, riotshare.Options{BindParams: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(choices) != 2 {
		t.Fatalf("want 2 choices, got %d", len(choices))
	}
}

// A shared buffer pool through the public API: two executions of one plan
// over the same pool must produce identical results while the second run's
// reads are served from memory (no new physical reads).
func TestPublicAPISharedBufferPool(t *testing.T) {
	p := riotshare.AddMul(riotshare.AddMulConfig{
		N1: 2, N2: 3, N3: 1,
		ABBlock: riotshare.Dims{Rows: 4, Cols: 4},
		DBlock:  riotshare.Dims{Rows: 4, Cols: 4},
	})
	res, err := riotshare.Optimize(p, riotshare.Options{BindParams: true})
	if err != nil {
		t.Fatal(err)
	}
	store, err := riotshare.NewStorage(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if err := store.CreateAll(p); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for _, name := range []string{"A", "B", "D"} {
		arr := p.Arrays[name]
		for br := 0; br < arr.GridRows; br++ {
			for bc := 0; bc < arr.GridCols; bc++ {
				blk := blas.NewMatrix(arr.BlockRows, arr.BlockCols)
				for i := range blk.Data {
					blk.Data[i] = rng.NormFloat64()
				}
				if err := store.WriteBlock(name, int64(br), int64(bc), blk); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	pool := riotshare.NewBufferPool(store, 0)
	opt := riotshare.ExecOptions{Pool: pool}
	r1, err := riotshare.ExecuteOptions(res.Best, store, riotshare.PaperDiskModel(), 0, opt)
	if err != nil {
		t.Fatal(err)
	}
	readsAfterFirst := store.Stats().ReadReqs
	r2, err := riotshare.ExecuteOptions(res.Best, store, riotshare.PaperDiskModel(), 0, opt)
	if err != nil {
		t.Fatal(err)
	}
	r1.CPUTime, r2.CPUTime = 0, 0
	r1.StageTimes, r2.StageTimes = nil, nil
	if !reflect.DeepEqual(r1, r2) {
		t.Fatalf("pooled reruns diverged: %+v vs %+v", r1, r2)
	}
	if got := store.Stats().ReadReqs; got != readsAfterFirst {
		t.Errorf("second run did %d new physical reads, want 0 (pool hits)", got-readsAfterFirst)
	}
	if st := pool.Stats(); st.Hits == 0 || st.PinnedFrames != 0 {
		t.Errorf("pool stats after runs: %+v (want hits > 0 and no leaked pins)", st)
	}
	if err := pool.Flush(); err != nil {
		t.Fatal(err)
	}
}

// OptimizeSubsets and the refined disk model through the public API.
func TestPublicAPISubsetsAndRefinedModel(t *testing.T) {
	p := riotshare.AddMul(riotshare.AddMulConfig{
		N1: 2, N2: 3, N3: 1,
		ABBlock: riotshare.Dims{Rows: 4, Cols: 4},
		DBlock:  riotshare.Dims{Rows: 4, Cols: 4},
	})
	res, err := riotshare.OptimizeSubsets(p, riotshare.Options{
		BindParams: true,
		Model:      riotshare.RefinedDiskModel(0.005),
	}, [][]string{{"s1WC→s2RC"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Plans) != 2 {
		t.Fatalf("want baseline + 1 subset, got %d plans", len(res.Plans))
	}
	store, err := riotshare.NewStorage(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if err := store.CreateAll(p); err != nil {
		t.Fatal(err)
	}
	// Execution without inputs must fail cleanly (reads of unwritten blocks).
	if _, err := riotshare.Execute(&res.Plans[0], store, riotshare.PaperDiskModel(), 0); err == nil {
		t.Fatal("executing without inputs should error")
	}
}
