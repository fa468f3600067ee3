package riotshare_test

import (
	"context"
	"fmt"
	"io"
	"testing"
	"time"

	"riotshare"
	"riotshare/internal/bench"
	"riotshare/internal/blas"
	"riotshare/internal/core"
	"riotshare/internal/deps"
	"riotshare/internal/sched"
)

// Each benchmark regenerates one table or figure of the paper's evaluation
// (§6); run `go test -bench=. -benchmem` or use cmd/expdriver for the
// formatted reports. DESIGN.md's experiment index maps paper artifacts to
// these targets.

func benchOpts() bench.Options { return bench.Options{Quick: true, Seed: 1} }

// BenchmarkTable2AddMul regenerates Table 2 (E1).
func BenchmarkTable2AddMul(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := bench.Table2(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3PlanSpace regenerates Figure 3(a) — the §6.1 plan space
// with the ♣ variant (E2).
func BenchmarkFig3PlanSpace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := bench.Fig3a(io.Discard, benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3PredictedVsActual regenerates Figure 3(b) — every §6.1 plan
// executed physically, predicted vs actual (E3).
func BenchmarkFig3PredictedVsActual(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := bench.Fig3b(io.Discard, benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3TwoMM regenerates Table 3 (E4).
func BenchmarkTable3TwoMM(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := bench.Table3(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4ConfigA regenerates Figure 4 (E5).
func BenchmarkFig4ConfigA(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := bench.Fig4(io.Discard, benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5ConfigB regenerates Figure 5 (E6).
func BenchmarkFig5ConfigB(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := bench.Fig5(io.Discard, benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable4LinReg regenerates Table 4 (E7).
func BenchmarkTable4LinReg(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := bench.Table4(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6LinReg regenerates Figure 6 with the selected plans (E8);
// the full 16k-plan space search runs via `cmd/expdriver -exp fig6 -full`.
func BenchmarkFig6LinReg(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := bench.Fig6(io.Discard, benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompareEngines regenerates the §6.1 system comparison (E9).
func BenchmarkCompareEngines(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := bench.Compare(io.Discard, benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOptimizerTime regenerates §6's optimization-time note (E10).
func BenchmarkOptimizerTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := bench.OptTime(io.Discard, benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScales regenerates the dataset-scale consistency experiment
// (E11).
func BenchmarkScales(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := bench.Scales(io.Discard, benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationApriori compares the Apriori-pruned search against the
// full power-set enumeration on the §6.1 program (the Lemma 2 design
// choice).
func BenchmarkAblationApriori(b *testing.B) {
	p := bench.AddMulPaper()
	an, err := deps.Analyze(p, deps.Options{BindParams: true})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("pruned", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := sched.NewSearcher(an)
			if _, err := s.Search(context.Background(), sched.SearchOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("powerset", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := sched.NewSearcher(an)
			if _, err := s.Search(context.Background(), sched.SearchOptions{NoPruning: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationMultiplicity measures search with and without
// Remark A.1's multiplicity reduction.
func BenchmarkAblationMultiplicity(b *testing.B) {
	for _, mode := range []struct {
		name string
		skip bool
	}{{"reduced", false}, {"unreduced", true}} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := core.Optimize(bench.AddMulPaper(), core.Options{
					BindParams:                true,
					SkipMultiplicityReduction: mode.skip,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationCostModel compares the linear I/O model against the
// per-request-overhead model (§5.4's "more refined models").
func BenchmarkAblationCostModel(b *testing.B) {
	for _, m := range []struct {
		name  string
		model riotshare.DiskModel
	}{
		{"linear", riotshare.PaperDiskModel()},
		{"refined", riotshare.RefinedDiskModel(0.008)},
	} {
		b.Run(m.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := core.Optimize(bench.AddMulPaper(), core.Options{BindParams: true, Model: m.model})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkParallelExec compares the execution engine's in-order schedule
// (workers=1) against its pipelined DAG schedule on the two-multiplication
// workload (C = A·B; E = A·D) in two regimes. "io-bound" simulates the
// paper's slow device with a per-request latency, the regime RIOTShare
// targets: the prefetcher overlaps block reads with compute and with each
// other, so wall clock drops sharply with workers while logical I/O volumes
// stay identical. "cpu-bound" uses raw local storage, where speedup instead
// tracks the machine's core count (kernels run concurrently across
// workers).
func BenchmarkParallelExec(b *testing.B) {
	p := riotshare.TwoMM(riotshare.TwoMMConfig{
		N1: 4, N2: 4, N3: 4, N4: 4,
		ABlock: riotshare.Dims{Rows: 64, Cols: 64},
		BBlock: riotshare.Dims{Rows: 64, Cols: 64},
		DBlock: riotshare.Dims{Rows: 64, Cols: 64},
	})
	res, err := riotshare.Optimize(p, riotshare.Options{BindParams: true})
	if err != nil {
		b.Fatal(err)
	}
	pl := res.Best
	model := riotshare.PaperDiskModel()
	for _, regime := range []struct {
		name    string
		latency time.Duration
	}{
		{"io-bound", 2 * time.Millisecond},
		{"cpu-bound", 0},
	} {
		store, err := riotshare.NewStorage(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		store.SetLatency(regime.latency, regime.latency)
		if err := store.CreateAll(p); err != nil {
			b.Fatal(err)
		}
		if _, err := bench.FillInputs(p, store, 1); err != nil {
			b.Fatal(err)
		}
		var seq riotshare.ExecResult
		for _, workers := range []int{1, 2, 4} {
			workers := workers
			b.Run(fmt.Sprintf("%s/workers=%d", regime.name, workers), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					r, err := riotshare.ExecuteOptions(pl, store, model, 0,
						riotshare.ExecOptions{Workers: workers})
					if err != nil {
						b.Fatal(err)
					}
					if workers == 1 {
						seq = r
					} else if seq.ReadBytes > 0 &&
						(r.ReadBytes != seq.ReadBytes || r.WriteBytes != seq.WriteBytes ||
							r.ReadReqs != seq.ReadReqs || r.WriteReqs != seq.WriteReqs ||
							r.PeakMemoryBytes != seq.PeakMemoryBytes) {
						b.Fatalf("workers=%d: logical accounting diverged from the in-order schedule", workers)
					}
				}
			})
		}
		store.Close()
	}
}

// BenchmarkKernels compares the micro-kernel GEMM against the naive triple
// loop (the GotoBLAS2-substitute kernel, DESIGN.md S6).
func BenchmarkKernels(b *testing.B) {
	n := 128
	a := blas.NewMatrix(n, n)
	bb := blas.NewMatrix(n, n)
	for i := range a.Data {
		a.Data[i] = float64(i % 7)
		bb.Data[i] = float64(i % 5)
	}
	dst := blas.NewMatrix(n, n)
	b.Run("gemm", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dst.Zero()
			blas.Gemm(dst, a, false, bb, false)
		}
	})
	b.Run("gemm-naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dst.Zero()
			blas.GemmNaive(dst, a, false, bb, false)
		}
	})
}
