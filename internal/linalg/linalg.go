// Package linalg provides exact integer and rational linear algebra used by
// the polyhedral layer: ranks, null spaces, row spans, and small utilities on
// integer vectors. All computations are exact (math/big rationals internally,
// integer vectors externally), because polyhedral reasoning cannot tolerate
// floating-point error.
package linalg

import (
	"fmt"
	"math/big"
)

// Gcd returns the non-negative greatest common divisor of a and b.
// Gcd(0, 0) == 0.
func Gcd(a, b int64) int64 {
	if a < 0 {
		a = -a
	}
	if b < 0 {
		b = -b
	}
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// GcdVec returns the gcd of all entries of v (non-negative; 0 for the zero
// vector).
func GcdVec(v []int64) int64 {
	var g int64
	for _, x := range v {
		g = Gcd(g, x)
	}
	return g
}

// NormalizeVec divides v in place by the gcd of its entries, if nonzero.
// It returns v for chaining.
func NormalizeVec(v []int64) []int64 {
	g := GcdVec(v)
	if g > 1 {
		for i := range v {
			v[i] /= g
		}
	}
	return v
}

// Dot returns the inner product of two equal-length integer vectors.
func Dot(a, b []int64) int64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("linalg: Dot length mismatch %d vs %d", len(a), len(b)))
	}
	var s int64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// IsZeroVec reports whether every entry of v is zero.
func IsZeroVec(v []int64) bool {
	for _, x := range v {
		if x != 0 {
			return false
		}
	}
	return true
}

// CloneVec returns a copy of v.
func CloneVec(v []int64) []int64 {
	c := make([]int64, len(v))
	copy(c, v)
	return c
}

// ScaleVec returns k*v as a new vector.
func ScaleVec(k int64, v []int64) []int64 {
	c := make([]int64, len(v))
	for i, x := range v {
		c[i] = k * x
	}
	return c
}

// AddVec returns a+b as a new vector.
func AddVec(a, b []int64) []int64 {
	if len(a) != len(b) {
		panic("linalg: AddVec length mismatch")
	}
	c := make([]int64, len(a))
	for i := range a {
		c[i] = a[i] + b[i]
	}
	return c
}

// SubVec returns a-b as a new vector.
func SubVec(a, b []int64) []int64 {
	if len(a) != len(b) {
		panic("linalg: SubVec length mismatch")
	}
	c := make([]int64, len(a))
	for i := range a {
		c[i] = a[i] - b[i]
	}
	return c
}

// ratMat is a dense matrix of rationals used internally for elimination.
type ratMat struct {
	rows, cols int
	a          []*big.Rat // row-major
}

func newRatMat(rows [][]int64) *ratMat {
	if len(rows) == 0 {
		return &ratMat{}
	}
	m := &ratMat{rows: len(rows), cols: len(rows[0])}
	m.a = make([]*big.Rat, m.rows*m.cols)
	for i, r := range rows {
		if len(r) != m.cols {
			panic("linalg: ragged matrix")
		}
		for j, x := range r {
			m.a[i*m.cols+j] = new(big.Rat).SetInt64(x)
		}
	}
	return m
}

func (m *ratMat) at(i, j int) *big.Rat { return m.a[i*m.cols+j] }

// rowEchelon performs in-place Gauss-Jordan elimination and returns, for each
// pivot, the column it lands in (in order). Rows of m are modified.
func (m *ratMat) rowEchelon() (pivotCols []int) {
	if m.rows == 0 {
		return nil
	}
	row := 0
	for col := 0; col < m.cols && row < m.rows; col++ {
		// Find pivot.
		p := -1
		for i := row; i < m.rows; i++ {
			if m.at(i, col).Sign() != 0 {
				p = i
				break
			}
		}
		if p < 0 {
			continue
		}
		// Swap into place.
		if p != row {
			for j := 0; j < m.cols; j++ {
				m.a[p*m.cols+j], m.a[row*m.cols+j] = m.a[row*m.cols+j], m.a[p*m.cols+j]
			}
		}
		// Scale pivot row to make pivot 1.
		inv := new(big.Rat).Inv(m.at(row, col))
		for j := col; j < m.cols; j++ {
			m.at(row, j).Mul(m.at(row, j), inv)
		}
		// Eliminate the column everywhere else (Gauss-Jordan: full reduction).
		for i := 0; i < m.rows; i++ {
			if i == row || m.at(i, col).Sign() == 0 {
				continue
			}
			f := new(big.Rat).Set(m.at(i, col))
			for j := col; j < m.cols; j++ {
				t := new(big.Rat).Mul(f, m.at(row, j))
				m.at(i, j).Sub(m.at(i, j), t)
			}
		}
		pivotCols = append(pivotCols, col)
		row++
	}
	return pivotCols
}

// Rank returns the rank of the matrix whose rows are the given integer
// vectors.
func Rank(rows [][]int64) int {
	m := newRatMat(rows)
	return len(m.rowEchelon())
}

// NullSpaceBasis returns an integer basis of the (right) null space of the
// matrix whose rows are the given vectors: all v with rows·v = 0. Each basis
// vector is scaled to integers and gcd-normalized. cols is required so the
// dimension is known even when rows is empty (in which case the basis is the
// standard basis of Z^cols).
func NullSpaceBasis(rows [][]int64, cols int) [][]int64 {
	for _, r := range rows {
		if len(r) != cols {
			panic("linalg: NullSpaceBasis dimension mismatch")
		}
	}
	if len(rows) == 0 {
		basis := make([][]int64, cols)
		for i := range basis {
			basis[i] = make([]int64, cols)
			basis[i][i] = 1
		}
		return basis
	}
	m := newRatMat(rows)
	pivotCols := m.rowEchelon()
	isPivot := make([]bool, cols)
	for _, c := range pivotCols {
		isPivot[c] = true
	}
	var basis [][]int64
	for free := 0; free < cols; free++ {
		if isPivot[free] {
			continue
		}
		// Solution with x[free]=1, other free vars 0; pivot vars determined by
		// the reduced rows: x[pivotCols[i]] = -m[i][free].
		vec := make([]*big.Rat, cols)
		for j := range vec {
			vec[j] = new(big.Rat)
		}
		vec[free].SetInt64(1)
		for i, pc := range pivotCols {
			vec[pc].Neg(m.at(i, free))
		}
		basis = append(basis, ratVecToInt(vec))
	}
	return basis
}

// ratVecToInt clears denominators (multiplying by the LCM) and gcd-normalizes.
func ratVecToInt(v []*big.Rat) []int64 {
	l := big.NewInt(1)
	for _, x := range v {
		d := x.Denom()
		g := new(big.Int).GCD(nil, nil, l, d)
		l.Div(l, g).Mul(l, d)
	}
	out := make([]int64, len(v))
	for i, x := range v {
		n := new(big.Int).Mul(x.Num(), l)
		n.Div(n, x.Denom())
		if !n.IsInt64() {
			panic("linalg: coefficient overflow clearing denominators")
		}
		out[i] = n.Int64()
	}
	NormalizeVec(out)
	return out
}

// SolveExact solves A x = b exactly over the rationals, where A's rows are
// the given integer vectors. It returns the solution scaled to a rational
// pair (num, den) per coordinate via big.Rat, or ok=false if the system is
// inconsistent or underdetermined (multiple solutions: the minimal-index
// solution with free variables set to zero is returned with ok=true and
// unique=false).
func SolveExact(a [][]int64, b []int64) (x []*big.Rat, unique, ok bool) {
	if len(a) != len(b) {
		panic("linalg: SolveExact dimension mismatch")
	}
	if len(a) == 0 {
		return nil, false, false
	}
	cols := len(a[0])
	aug := make([][]int64, len(a))
	for i := range a {
		row := make([]int64, cols+1)
		copy(row, a[i])
		row[cols] = b[i]
		aug[i] = row
	}
	m := newRatMat(aug)
	pivots := m.rowEchelon()
	// Inconsistent if a pivot lands in the augmented column.
	for _, p := range pivots {
		if p == cols {
			return nil, false, false
		}
	}
	x = make([]*big.Rat, cols)
	for j := range x {
		x[j] = new(big.Rat)
	}
	for i, p := range pivots {
		x[p].Set(m.at(i, cols))
	}
	return x, len(pivots) == cols, true
}
