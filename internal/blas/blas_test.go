package blas

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randMat(rng *rand.Rand, r, c int) *Matrix {
	m := NewMatrix(r, c)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func TestAddSubScale(t *testing.T) {
	a := &Matrix{Rows: 1, Cols: 3, Data: []float64{1, 2, 3}}
	b := &Matrix{Rows: 1, Cols: 3, Data: []float64{4, 5, 6}}
	dst := NewMatrix(1, 3)
	Add(dst, a, b)
	if dst.Data[0] != 5 || dst.Data[2] != 9 {
		t.Fatal("Add wrong")
	}
	Sub(dst, b, a)
	if dst.Data[0] != 3 || dst.Data[2] != 3 {
		t.Fatal("Sub wrong")
	}
}

func TestGemmSmall(t *testing.T) {
	a := &Matrix{Rows: 2, Cols: 2, Data: []float64{1, 2, 3, 4}}
	b := &Matrix{Rows: 2, Cols: 2, Data: []float64{5, 6, 7, 8}}
	dst := NewMatrix(2, 2)
	Gemm(dst, a, false, b, false)
	want := []float64{19, 22, 43, 50}
	for i := range want {
		if dst.Data[i] != want[i] {
			t.Fatalf("Gemm got %v want %v", dst.Data, want)
		}
	}
}

func TestGemmAccumulates(t *testing.T) {
	a := &Matrix{Rows: 1, Cols: 1, Data: []float64{2}}
	b := &Matrix{Rows: 1, Cols: 1, Data: []float64{3}}
	dst := &Matrix{Rows: 1, Cols: 1, Data: []float64{10}}
	Gemm(dst, a, false, b, false)
	if dst.Data[0] != 16 {
		t.Fatalf("Gemm should accumulate: got %v", dst.Data[0])
	}
}

// Property: Gemm equals GemmNaive bit for bit — same products, same
// ascending-k summation order — for every transpose combination, for shapes
// on and around the four-step unroll width, whether dst starts zero or
// holds an accumulator, and when a row of op(a) is all zero.
func TestGemmBitIdenticalToNaive(t *testing.T) {
	shapes := [][3]int{ // m, n, k
		{1, 1, 1}, {3, 5, 7}, {4, 4, 4}, {8, 8, 8}, {32, 32, 32}, {64, 64, 64}, {70, 65, 130},
		{6, 9, 1}, {6, 9, 2}, {6, 9, 3}, {6, 9, 5},
	}
	rng := rand.New(rand.NewSource(5))
	for _, ta := range []bool{false, true} {
		for _, tb := range []bool{false, true} {
			for _, sh := range shapes {
				for _, accumulate := range []bool{false, true} {
					m, n, k := sh[0], sh[1], sh[2]
					a, b := randMat(rng, m, k), randMat(rng, k, n)
					for kk := 0; kk < k; kk++ {
						a.Set(m/2, kk, 0) // one all-zero row of op(a)
					}
					if ta {
						a = transposed(a)
					}
					if tb {
						b = transposed(b)
					}
					d1 := NewMatrix(m, n)
					if accumulate {
						d1 = randMat(rng, m, n)
					}
					d2 := d1.Clone()
					Gemm(d1, a, ta, b, tb)
					GemmNaive(d2, a, ta, b, tb)
					for i := range d1.Data {
						if d1.Data[i] != d2.Data[i] {
							t.Fatalf("ta=%v tb=%v %dx%dx%d accumulate=%v: element %d is %v, naive %v",
								ta, tb, m, n, k, accumulate, i, d1.Data[i], d2.Data[i])
						}
					}
				}
			}
		}
	}
}

func transposed(m *Matrix) *Matrix {
	t := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			t.Set(j, i, m.At(i, j))
		}
	}
	return t
}

// Gemm follows IEEE 754 on non-finite operands exactly as GemmNaive does: a
// zero in a does not mask an Inf or NaN in b.
func TestGemmNonFinitePropagates(t *testing.T) {
	a := &Matrix{Rows: 2, Cols: 5, Data: []float64{0, 0, 0, 0, 0, 1, 2, 0, 4, 0}}
	b := NewMatrix(5, 2)
	for i := range b.Data {
		b.Data[i] = float64(i + 1)
	}
	b.Set(2, 0, math.Inf(1)) // meets a zero in both rows of a: 0·Inf = NaN
	b.Set(4, 1, math.NaN())  // the remainder step past the unroll width
	got, want := NewMatrix(2, 2), NewMatrix(2, 2)
	Gemm(got, a, false, b, false)
	GemmNaive(want, a, false, b, false)
	for i := range got.Data {
		if !math.IsNaN(got.Data[i]) || !math.IsNaN(want.Data[i]) {
			t.Fatalf("element %d: Gemm %v, naive %v, want NaN from both", i, got.Data[i], want.Data[i])
		}
	}
}

func TestLUInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{1, 2, 3, 8, 33} {
		a := randMat(rng, n, n)
		// Diagonal dominance to guarantee invertibility.
		for i := 0; i < n; i++ {
			a.Set(i, i, a.At(i, i)+float64(n))
		}
		inv := NewMatrix(n, n)
		if err := Inverse(inv, a); err != nil {
			t.Fatal(err)
		}
		prod := NewMatrix(n, n)
		Gemm(prod, a, false, inv, false)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				want := 0.0
				if i == j {
					want = 1
				}
				if math.Abs(prod.At(i, j)-want) > 1e-8 {
					t.Fatalf("n=%d: A·A⁻¹ not identity at (%d,%d): %g", n, i, j, prod.At(i, j))
				}
			}
		}
	}
}

func TestInverseSingular(t *testing.T) {
	a := NewMatrix(2, 2) // zero matrix
	inv := NewMatrix(2, 2)
	if err := Inverse(inv, a); err == nil {
		t.Fatal("singular matrix should error")
	}
}

func TestLUPivoting(t *testing.T) {
	// Zero leading pivot forces a row swap.
	a := &Matrix{Rows: 2, Cols: 2, Data: []float64{0, 1, 1, 0}}
	inv := NewMatrix(2, 2)
	if err := Inverse(inv, a); err != nil {
		t.Fatal(err)
	}
	// Inverse of the swap is the swap.
	if math.Abs(inv.At(0, 1)-1) > 1e-12 || math.Abs(inv.At(1, 0)-1) > 1e-12 {
		t.Fatalf("swap inverse wrong: %v", inv.Data)
	}
}

func TestRSS(t *testing.T) {
	e := &Matrix{Rows: 2, Cols: 2, Data: []float64{1, 2, 3, 4}}
	dst := NewMatrix(1, 2)
	RSS(dst, e)
	if dst.Data[0] != 10 || dst.Data[1] != 20 {
		t.Fatalf("RSS got %v", dst.Data)
	}
	RSS(dst, e) // accumulates
	if dst.Data[0] != 20 {
		t.Fatal("RSS should accumulate")
	}
}

// Property: (A+B) - B == A elementwise.
func TestAddSubInverseProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randMat(rng, 5, 7)
		b := randMat(rng, 5, 7)
		s := NewMatrix(5, 7)
		Add(s, a, b)
		d := NewMatrix(5, 7)
		Sub(d, s, b)
		return MaxAbsDiff(d, a) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Property: Gemm distributes over block splitting along k — computing
// C = A1·B1 + A2·B2 by two accumulating calls equals the single product of
// the concatenated operands. This is exactly the block-accumulation the
// execution engine relies on.
func TestGemmBlockAccumulationProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 10; trial++ {
		m, n, k1, k2 := 9, 8, 6, 5
		a1, a2 := randMat(rng, m, k1), randMat(rng, m, k2)
		b1, b2 := randMat(rng, k1, n), randMat(rng, k2, n)
		// Concatenate along k.
		ca := NewMatrix(m, k1+k2)
		for i := 0; i < m; i++ {
			for k := 0; k < k1; k++ {
				ca.Set(i, k, a1.At(i, k))
			}
			for k := 0; k < k2; k++ {
				ca.Set(i, k1+k, a2.At(i, k))
			}
		}
		cb := NewMatrix(k1+k2, n)
		for k := 0; k < k1; k++ {
			for j := 0; j < n; j++ {
				cb.Set(k, j, b1.At(k, j))
			}
		}
		for k := 0; k < k2; k++ {
			for j := 0; j < n; j++ {
				cb.Set(k1+k, j, b2.At(k, j))
			}
		}
		whole := NewMatrix(m, n)
		Gemm(whole, ca, false, cb, false)
		acc := NewMatrix(m, n)
		Gemm(acc, a1, false, b1, false)
		Gemm(acc, a2, false, b2, false)
		if diff := MaxAbsDiff(whole, acc); diff > 1e-9 {
			t.Fatalf("block accumulation mismatch: %g", diff)
		}
	}
}

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(1, 2, 5)
	if m.At(1, 2) != 5 {
		t.Fatal("At/Set wrong")
	}
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) == 9 {
		t.Fatal("Clone should copy")
	}
	m.Zero()
	if m.At(1, 2) != 0 {
		t.Fatal("Zero wrong")
	}
}
