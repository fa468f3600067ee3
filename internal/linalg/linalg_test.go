package linalg

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestGcd(t *testing.T) {
	cases := []struct{ a, b, want int64 }{
		{0, 0, 0}, {0, 5, 5}, {5, 0, 5}, {12, 18, 6}, {-12, 18, 6},
		{12, -18, 6}, {-12, -18, 6}, {7, 13, 1}, {1, 1, 1},
	}
	for _, c := range cases {
		if got := Gcd(c.a, c.b); got != c.want {
			t.Errorf("Gcd(%d,%d)=%d want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestGcdProperties(t *testing.T) {
	f := func(a, b int32) bool {
		g := Gcd(int64(a), int64(b))
		if a == 0 && b == 0 {
			return g == 0
		}
		if g <= 0 {
			return false
		}
		return int64(a)%g == 0 && int64(b)%g == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDot(t *testing.T) {
	if got := Dot([]int64{1, 2, 3}, []int64{4, -5, 6}); got != 12 {
		t.Fatalf("Dot got %d want 12", got)
	}
}

func TestVecOps(t *testing.T) {
	a := []int64{1, 2}
	if s := ScaleVec(3, a); s[0] != 3 || s[1] != 6 {
		t.Fatal("ScaleVec wrong")
	}
	if !IsZeroVec([]int64{0, 0}) || IsZeroVec([]int64{0, 1}) {
		t.Fatal("IsZeroVec wrong")
	}
}

func TestRank(t *testing.T) {
	cases := []struct {
		rows [][]int64
		want int
	}{
		{nil, 0},
		{[][]int64{{0, 0}}, 0},
		{[][]int64{{1, 0}, {0, 1}}, 2},
		{[][]int64{{1, 2}, {2, 4}}, 1},
		{[][]int64{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}}, 2},
		{[][]int64{{2, 0, 0}, {0, 3, 0}, {0, 0, 5}}, 3},
		{[][]int64{{1, 1}, {1, -1}, {2, 0}}, 2},
	}
	for i, c := range cases {
		if got := Rank(c.rows); got != c.want {
			t.Errorf("case %d: Rank=%d want %d", i, got, c.want)
		}
	}
}

func TestNullSpaceBasis(t *testing.T) {
	// Null space of [1 1 1] is 2-dimensional; every basis vector must be
	// orthogonal to the row.
	rows := [][]int64{{1, 1, 1}}
	basis := NullSpaceBasis(rows, 3)
	if len(basis) != 2 {
		t.Fatalf("basis size %d want 2", len(basis))
	}
	for _, v := range basis {
		if Dot(v, rows[0]) != 0 {
			t.Errorf("basis vector %v not orthogonal", v)
		}
	}
	if Rank(basis) != 2 {
		t.Error("basis not independent")
	}
}

func TestNullSpaceBasisEmptyRows(t *testing.T) {
	basis := NullSpaceBasis(nil, 3)
	if len(basis) != 3 || Rank(basis) != 3 {
		t.Fatalf("expected standard basis, got %v", basis)
	}
}

func TestNullSpaceBasisFullRank(t *testing.T) {
	rows := [][]int64{{1, 0}, {0, 1}}
	if basis := NullSpaceBasis(rows, 2); len(basis) != 0 {
		t.Fatalf("full-rank matrix should have trivial null space, got %v", basis)
	}
}

// Property: rank(rows) + dim(nullspace) == cols (rank-nullity).
func TestRankNullityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 200; iter++ {
		rows := rng.Intn(5)
		cols := 1 + rng.Intn(5)
		m := make([][]int64, rows)
		for i := range m {
			m[i] = make([]int64, cols)
			for j := range m[i] {
				m[i][j] = int64(rng.Intn(7) - 3)
			}
		}
		r := Rank(m)
		ns := NullSpaceBasis(m, cols)
		if r+len(ns) != cols {
			t.Fatalf("rank-nullity violated: rank=%d null=%d cols=%d m=%v", r, len(ns), cols, m)
		}
		for _, v := range ns {
			if g := GcdVec(v); g != 1 {
				t.Fatalf("null vector %v not gcd-normalized (gcd %d)", v, g)
			}
			for _, row := range m {
				if Dot(row, v) != 0 {
					t.Fatalf("null vector %v not orthogonal to %v", v, row)
				}
			}
		}
	}
}

func TestRankRegression(t *testing.T) {
	// Rows from an actual schedule prefix (loop-var parts).
	rows := [][]int64{{0, 0, 0}, {0, -1, 0}, {0, 0, 1}}
	if got := Rank(rows); got != 2 {
		t.Fatalf("Rank=%d want 2", got)
	}
}
