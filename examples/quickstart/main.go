// Quickstart: build the paper's Example 1 (C = A + B; E = C·D), let the
// optimizer enumerate and cost all legal plans, execute the best plan on
// synthetic data, and verify the result against an in-memory reference.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"os"

	"riotshare"
	"riotshare/internal/blas"
)

func main() {
	// A 3x4 block grid with one column block of D: the n3=1 case of §6.1,
	// small enough to run instantly.
	p := riotshare.AddMul(riotshare.AddMulConfig{
		N1: 3, N2: 4, N3: 1,
		ABBlock: riotshare.Dims{Rows: 64, Cols: 48},
		DBlock:  riotshare.Dims{Rows: 48, Cols: 32},
	})

	res, err := riotshare.Optimize(p, riotshare.Options{BindParams: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("found %d legal plans in %v\n\n", len(res.Plans), res.OptimizeTime)
	fmt.Printf("%-5s %-10s %-12s %s\n", "plan", "mem(KB)", "I/O bytes", "sharing set")
	for _, pl := range res.Plans {
		fmt.Printf("%-5d %-10d %-12d %s\n",
			pl.Index, pl.Cost.PeakMemoryBytes/1024, pl.Cost.ReadBytes+pl.Cost.WriteBytes, pl.Label)
	}
	best := res.Best
	fmt.Printf("\nbest plan: %s\nschedule:\n%s\npseudo-code:\n%s\n",
		best.Label, best.Plan.Schedule.StringFor(p), riotshare.Pseudocode(best))

	// Execute it physically.
	dir, err := os.MkdirTemp("", "riotshare-quickstart-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	store, err := riotshare.NewStorage(dir)
	if err != nil {
		log.Fatal(err)
	}
	defer store.Close()
	if err := store.CreateAll(p); err != nil {
		log.Fatal(err)
	}

	rng := rand.New(rand.NewSource(1))
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
					log.Fatal(err)
				}
			}
		}
		return fm
	}
	a, b, d := fill("A"), fill("B"), fill("D")

	r, err := riotshare.Execute(best, store, riotshare.PaperDiskModel(), 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("executed: read %d bytes (%d requests), wrote %d bytes (%d requests), kernels %v\n",
		r.ReadBytes, r.ReadReqs, r.WriteBytes, r.WriteReqs, r.CPUTime)
	fmt.Printf("predicted I/O bytes: %d, measured: %d (must match exactly)\n",
		best.Cost.ReadBytes+best.Cost.WriteBytes, r.ReadBytes+r.WriteBytes)

	// Verify E = (A+B)·D against the in-memory reference.
	sum := blas.NewMatrix(a.Rows, a.Cols)
	blas.Add(sum, a, b)
	want := blas.NewMatrix(a.Rows, d.Cols)
	blas.Gemm(want, sum, false, d, false)
	arr := p.Arrays["E"]
	var maxDiff float64
	for br := 0; br < arr.GridRows; br++ {
		for bc := 0; bc < arr.GridCols; bc++ {
			blk, err := store.ReadBlock("E", int64(br), int64(bc))
			if err != nil {
				log.Fatal(err)
			}
			for rr := 0; rr < arr.BlockRows; rr++ {
				for cc := 0; cc < arr.BlockCols; cc++ {
					d := blk.At(rr, cc) - want.At(br*arr.BlockRows+rr, bc*arr.BlockCols+cc)
					if d < 0 {
						d = -d
					}
					if d > maxDiff {
						maxDiff = d
					}
				}
			}
		}
	}
	fmt.Printf("max |E - reference| = %g\n", maxDiff)
	if maxDiff > 1e-9 {
		log.Fatal("result mismatch")
	}
	fmt.Println("OK")
}
