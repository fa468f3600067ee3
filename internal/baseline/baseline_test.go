package baseline_test

import (
	"strings"
	"testing"

	"riotshare/internal/baseline"
	"riotshare/internal/bench"
	"riotshare/internal/blas"
	"riotshare/internal/core"
	"riotshare/internal/ops"
	"riotshare/internal/prog"
	"riotshare/internal/storage"
)

func smallAddMul() *prog.Program {
	return ops.AddMul(ops.AddMulConfig{
		N1: 4, N2: 4, N3: 1,
		ABBlock: ops.Dims{Rows: 6, Cols: 5},
		DBlock:  ops.Dims{Rows: 5, Cols: 4},
	})
}

// openFilled creates a store for p under the test's temp dir with its
// inputs filled from seed, and returns the full input matrices.
func openFilled(t *testing.T, p *prog.Program, seed int64) (*storage.Manager, map[string]*blas.Matrix) {
	t.Helper()
	m, err := storage.NewManager(t.TempDir(), storage.FormatDAF)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	if err := m.CreateAll(p); err != nil {
		t.Fatal(err)
	}
	full, err := bench.FillInputs(p, m, seed)
	if err != nil {
		t.Fatal(err)
	}
	return m, full
}

func TestOperatorAtATimeBetween(t *testing.T) {
	p := smallAddMul()
	opt := core.Options{BindParams: true}
	res, err := core.Optimize(p, opt)
	if err != nil {
		t.Fatal(err)
	}
	best := &res.Plans[0]
	none, err := baseline.NoSharing(smallAddMul(), opt)
	if err != nil {
		t.Fatal(err)
	}
	opAtATime, err := baseline.OperatorAtATime(smallAddMul(), opt)
	if err != nil {
		t.Fatal(err)
	}
	// The Matlab-like strategy sits between no sharing and the best plan.
	if opAtATime.Cost.IOTimeSec > none.Cost.IOTimeSec {
		t.Errorf("operator-at-a-time (%.1f) should not exceed no-sharing (%.1f)",
			opAtATime.Cost.IOTimeSec, none.Cost.IOTimeSec)
	}
	if best.Cost.IOTimeSec > opAtATime.Cost.IOTimeSec {
		t.Errorf("cross-operator sharing (%.1f) should beat per-operator (%.1f)",
			best.Cost.IOTimeSec, opAtATime.Cost.IOTimeSec)
	}
}

// The LRU buffer pool, given exactly the best plan's memory, must do more
// I/O than the explicitly-controlled plan — §2's argument that the buffer
// pool mechanism is opportunistic and timing-sensitive — while still
// producing correct results.
func TestLRUWorseThanExplicitControl(t *testing.T) {
	p := smallAddMul()
	res, err := core.Optimize(p, core.Options{BindParams: true})
	if err != nil {
		t.Fatal(err)
	}
	best := &res.Plans[0]
	base := res.Baseline()

	m, full := openFilled(t, p, 5)
	r, err := baseline.RunLRU(base.Timeline, m, best.Cost.PeakMemoryBytes)
	if err != nil {
		t.Fatal(err)
	}
	total := (r.Physical.ReadBytes + r.Physical.WriteBytes) * r.Scale
	bestTotal := best.Cost.ReadBytes + best.Cost.WriteBytes
	if total <= bestTotal {
		t.Errorf("LRU with the same memory (%d bytes I/O) should lose to the optimized plan (%d)",
			total, bestTotal)
	}
	// Correctness: E = (A+B)·D.
	sum := blas.NewMatrix(full["A"].Rows, full["A"].Cols)
	blas.Add(sum, full["A"], full["B"])
	want := blas.NewMatrix(full["A"].Rows, full["D"].Cols)
	blas.Gemm(want, sum, false, full["D"], false)
	arr := p.Arrays["E"]
	for br := 0; br < arr.GridRows; br++ {
		for bc := 0; bc < arr.GridCols; bc++ {
			blk, err := m.ReadBlock("E", int64(br), int64(bc))
			if err != nil {
				t.Fatal(err)
			}
			for rr := 0; rr < arr.BlockRows; rr++ {
				for cc := 0; cc < arr.BlockCols; cc++ {
					w := want.At(br*arr.BlockRows+rr, bc*arr.BlockCols+cc)
					if d := blk.At(rr, cc) - w; d > 1e-9 || d < -1e-9 {
						t.Fatalf("LRU run produced wrong E at block (%d,%d)", br, bc)
					}
				}
			}
		}
	}
	t.Logf("LRU I/O %.1fs vs optimized %.1fs vs no-sharing %.1fs",
		r.IOTimeSec(), best.Cost.IOTimeSec, base.Cost.IOTimeSec)
}

// The pool's residency peak must respect the cap converted to physical
// bytes: three blocks of the small program, and the §6.1 program at its
// best plan's memory, whose request counts and physical volumes are pinned.
// A program with no single conversion is refused.
func TestLRURespectsCap(t *testing.T) {
	small := smallAddMul()
	paper := bench.AddMulPaper()
	paperRes, err := core.Optimize(paper, core.Options{BindParams: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		p    *prog.Program
		cap  int64 // logical bytes
		want storage.Stats
	}{
		{name: "small", p: small, cap: 3 * 6 * 5 * 8}, // three blocks
		{name: "paper", p: paper, cap: paperRes.Plans[0].Cost.PeakMemoryBytes,
			want: storage.Stats{ReadReqs: 576, ReadBytes: 116544, WriteReqs: 288, WriteBytes: 62208}},
	} {
		res, err := core.OptimizeSubsets(tc.p, core.Options{BindParams: true}, nil)
		if err != nil {
			t.Fatal(err)
		}
		m, _ := openFilled(t, tc.p, 6)
		r, err := baseline.RunLRU(res.Baseline().Timeline, m, tc.cap)
		if err != nil {
			t.Fatal(err)
		}
		scale, err := baseline.LogicalScale(tc.p)
		if err != nil {
			t.Fatal(err)
		}
		if physCap := tc.cap / scale; r.Pool.BytesCap != physCap || r.Pool.PeakBytes > physCap {
			t.Errorf("%s: pool cap %d, peak %d; want cap %d and peak within it",
				tc.name, r.Pool.BytesCap, r.Pool.PeakBytes, physCap)
		}
		if tc.want != (storage.Stats{}) && r.Physical != tc.want {
			t.Errorf("%s: physical I/O %+v, want %+v", tc.name, r.Physical, tc.want)
		}
	}
	// A program whose arrays disagree on the logical/physical ratio has no
	// cap to convert to.
	mixed := ops.AddMul(ops.AddMulConfig{
		N1: 2, N2: 2, N3: 1,
		ABBlock:   ops.Dims{Rows: 6, Cols: 4},
		DBlock:    ops.Dims{Rows: 4, Cols: 5},
		LogicalAB: ops.Dims{Rows: 6000, Cols: 4000}, // ×10⁶
		LogicalD:  ops.Dims{Rows: 400, Cols: 500},   // ×10⁴
	})
	if _, err := baseline.LogicalScale(mixed); err == nil || !strings.Contains(err.Error(), "no single logical/physical ratio") {
		t.Errorf("mixed ratios: err = %v, want a refusal", err)
	}
}
