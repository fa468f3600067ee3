// Package blas provides the in-core dense kernels the execution engine runs
// on memory-resident blocks: GEMM with transpose flags (a four-step
// register micro-kernel, bit-identical to the textbook loop), addition,
// subtraction, LU-based inversion, and residual sums of squares.
// It substitutes for GotoBLAS2 [15] (DESIGN.md substitution S6); absolute
// FLOP rates differ from the paper's, but the paper's conclusions depend
// only on CPU time being constant across plans, which holds here.
package blas

import (
	"fmt"
	"math"
)

// Matrix is a dense row-major float64 matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// NewMatrix allocates a zero matrix.
func NewMatrix(rows, cols int) *Matrix {
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Zero clears the matrix in place.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Add computes dst = a + b elementwise; shapes must match.
func Add(dst, a, b *Matrix) {
	checkSame(a, b)
	checkSame(dst, a)
	for i := range dst.Data {
		dst.Data[i] = a.Data[i] + b.Data[i]
	}
}

// Sub computes dst = a - b elementwise.
func Sub(dst, a, b *Matrix) {
	checkSame(a, b)
	checkSame(dst, a)
	for i := range dst.Data {
		dst.Data[i] = a.Data[i] - b.Data[i]
	}
}

func checkSame(a, b *Matrix) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("blas: shape mismatch %dx%d vs %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
}

// Gemm computes dst += op(a)·op(b), where op transposes its argument when
// the corresponding flag is set. dst must already have the product shape;
// use dst.Zero() first for a plain product.
//
// The loop is a row micro-kernel: each pass over a destination row fuses
// four k steps (one load and one store of dst[i][j] per four multiply-adds)
// over rows re-sliced once so the inner loop carries no bounds check. With
// transB the same loop runs over a packed copy of bᵀ; with transA the four
// a values are read down a's column. Every element is accumulated in
// ascending k, one rounded product at a time, so the result is bit-identical
// to GemmNaive's for every input.
//
// That includes non-finite inputs: there is no shortcut for zeros in op(a),
// so 0·Inf and 0·NaN contribute NaN as IEEE 754 prescribes. Skipping zero
// a values would hide those NaNs, diverge from the oracle, and cost a
// branch per multiply-add on the dense blocks the engine runs.
func Gemm(dst *Matrix, a *Matrix, transA bool, b *Matrix, transB bool) {
	m, kk := a.Rows, a.Cols
	if transA {
		m, kk = kk, m
	}
	br, n := b.Rows, b.Cols
	if transB {
		br, n = n, br
	}
	if kk != br {
		panic(fmt.Sprintf("blas: gemm inner dims %d vs %d", kk, br))
	}
	if dst.Rows != m || dst.Cols != n {
		panic(fmt.Sprintf("blas: gemm dst %dx%d want %dx%d", dst.Rows, dst.Cols, m, n))
	}
	bd := b.Data
	if transB {
		// Pack op(b) row-major (kk×n) so the kernel streams its rows.
		bd = make([]float64, kk*n)
		for j := 0; j < n; j++ {
			for k, v := range b.Data[j*kk : (j+1)*kk] {
				bd[k*n+j] = v
			}
		}
	}
	ad, lda := a.Data, a.Cols
	for i := 0; i < m; i++ {
		d := dst.Data[i*n : (i+1)*n]
		k := 0
		for ; k+4 <= kk; k += 4 {
			var a0, a1, a2, a3 float64
			if transA {
				a0, a1, a2, a3 = ad[k*lda+i], ad[(k+1)*lda+i], ad[(k+2)*lda+i], ad[(k+3)*lda+i]
			} else {
				ar := ad[i*lda+k : i*lda+k+4]
				a0, a1, a2, a3 = ar[0], ar[1], ar[2], ar[3]
			}
			b0 := bd[k*n : (k+1)*n][:len(d)]
			b1 := bd[(k+1)*n : (k+2)*n][:len(d)]
			b2 := bd[(k+2)*n : (k+3)*n][:len(d)]
			b3 := bd[(k+3)*n : (k+4)*n][:len(d)]
			for j := range d {
				// float64(...) rounds each product before it is added, so
				// no platform may fuse it into the accumulation.
				d[j] = d[j] + float64(a0*b0[j]) + float64(a1*b1[j]) + float64(a2*b2[j]) + float64(a3*b3[j])
			}
		}
		for ; k < kk; k++ {
			var a0 float64
			if transA {
				a0 = ad[k*lda+i]
			} else {
				a0 = ad[i*lda+k]
			}
			b0 := bd[k*n : (k+1)*n][:len(d)]
			for j := range d {
				d[j] += float64(a0 * b0[j])
			}
		}
	}
}

// GemmNaive is the textbook triple loop, kept as the correctness oracle in
// tests and as the baseline of the kernel benchmark.
func GemmNaive(dst *Matrix, a *Matrix, transA bool, b *Matrix, transB bool) {
	ar, ac := a.Rows, a.Cols
	if transA {
		ar, ac = ac, ar
	}
	bc := b.Cols
	if transB {
		bc = b.Rows
	}
	for i := 0; i < ar; i++ {
		for j := 0; j < bc; j++ {
			s := dst.At(i, j)
			for k := 0; k < ac; k++ {
				var av, bv float64
				if transA {
					av = a.Data[k*a.Cols+i]
				} else {
					av = a.Data[i*a.Cols+k]
				}
				if transB {
					bv = b.Data[j*b.Cols+k]
				} else {
					bv = b.Data[k*b.Cols+j]
				}
				s += float64(av * bv)
			}
			dst.Set(i, j, s)
		}
	}
}

// LU computes an in-place LU decomposition with partial pivoting, returning
// the pivot permutation. a must be square.
func LU(a *Matrix) (piv []int, err error) {
	n := a.Rows
	if a.Cols != n {
		return nil, fmt.Errorf("blas: LU of non-square %dx%d", a.Rows, a.Cols)
	}
	piv = make([]int, n)
	for i := range piv {
		piv[i] = i
	}
	for col := 0; col < n; col++ {
		// Pivot selection.
		p, best := col, math.Abs(a.At(col, col))
		for r := col + 1; r < n; r++ {
			if v := math.Abs(a.At(r, col)); v > best {
				p, best = r, v
			}
		}
		if best == 0 {
			return nil, fmt.Errorf("blas: singular matrix at column %d", col)
		}
		if p != col {
			piv[p], piv[col] = piv[col], piv[p]
			for j := 0; j < n; j++ {
				v1, v2 := a.At(col, j), a.At(p, j)
				a.Set(col, j, v2)
				a.Set(p, j, v1)
			}
		}
		inv := 1 / a.At(col, col)
		for r := col + 1; r < n; r++ {
			f := a.At(r, col) * inv
			a.Set(r, col, f)
			if f == 0 {
				continue
			}
			for j := col + 1; j < n; j++ {
				a.Set(r, j, a.At(r, j)-f*a.At(col, j))
			}
		}
	}
	return piv, nil
}

// Inverse computes dst = a^{-1} via LU with partial pivoting; a is not
// modified.
func Inverse(dst, a *Matrix) error {
	n := a.Rows
	if a.Cols != n || dst.Rows != n || dst.Cols != n {
		return fmt.Errorf("blas: inverse shape mismatch")
	}
	lu := a.Clone()
	piv, err := LU(lu)
	if err != nil {
		return err
	}
	// Solve LU x = e_piv for each unit vector.
	col := make([]float64, n)
	for e := 0; e < n; e++ {
		for i := 0; i < n; i++ {
			if piv[i] == e {
				col[i] = 1
			} else {
				col[i] = 0
			}
		}
		// Forward substitution (L has unit diagonal).
		for i := 1; i < n; i++ {
			s := col[i]
			for j := 0; j < i; j++ {
				s -= lu.At(i, j) * col[j]
			}
			col[i] = s
		}
		// Back substitution.
		for i := n - 1; i >= 0; i-- {
			s := col[i]
			for j := i + 1; j < n; j++ {
				s -= lu.At(i, j) * col[j]
			}
			col[i] = s / lu.At(i, i)
		}
		for i := 0; i < n; i++ {
			dst.Set(i, e, col[i])
		}
	}
	return nil
}

// RSS accumulates per-column residual sums of squares of e into dst (a 1×k
// row vector): dst[0,j] += Σ_i e[i,j]^2.
func RSS(dst, e *Matrix) {
	if dst.Cols != e.Cols || dst.Rows != 1 {
		panic("blas: RSS dst must be 1×cols of e")
	}
	for i := 0; i < e.Rows; i++ {
		for j := 0; j < e.Cols; j++ {
			v := e.At(i, j)
			dst.Data[j] += v * v
		}
	}
}

// MaxAbsDiff returns the max absolute elementwise difference, for tests.
func MaxAbsDiff(a, b *Matrix) float64 {
	checkSame(a, b)
	var m float64
	for i := range a.Data {
		if d := math.Abs(a.Data[i] - b.Data[i]); d > m {
			m = d
		}
	}
	return m
}
