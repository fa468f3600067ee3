package polyhedra

import (
	"math/rand"
	"testing"
)

// box returns {lo <= x_i <= hi for all i}.
func box(dim int, lo, hi int64) *Poly {
	p := NewPoly(dim)
	for i := 0; i < dim; i++ {
		p.AddRange(i, lo, hi)
	}
	return p
}

func TestContains(t *testing.T) {
	p := box(2, 0, 3)
	if !p.Contains([]int64{0, 3}) || p.Contains([]int64{4, 0}) || p.Contains([]int64{-1, 2}) {
		t.Fatal("Contains wrong on box")
	}
}

func TestAddEqContains(t *testing.T) {
	p := box(2, 0, 5)
	p.AddEq([]int64{1, -1}, 0) // x = y
	if !p.Contains([]int64{2, 2}) || p.Contains([]int64{2, 3}) {
		t.Fatal("equality constraint not enforced")
	}
}

func TestSimplifyGCDTightening(t *testing.T) {
	// 2x - 1 >= 0 over integers means x >= 1 (tightened from x >= 1/2).
	p := NewPoly(1)
	p.AddIneq([]int64{2}, -1)
	p.Simplify()
	if p.Contains([]int64{0}) {
		t.Fatal("integer tightening failed: x=0 should violate 2x-1>=0 tightened to x>=1")
	}
	if !p.Contains([]int64{1}) {
		t.Fatal("x=1 should satisfy")
	}
}

func TestSimplifyGCDTestEquality(t *testing.T) {
	// 2x + 1 == 0 has no integer solutions.
	p := NewPoly(1)
	p.AddEq([]int64{2}, 1)
	if p.Simplify() {
		t.Fatal("GCD test should detect infeasibility of 2x+1=0")
	}
}

func TestSimplifyContradiction(t *testing.T) {
	p := NewPoly(1)
	p.AddIneq([]int64{1}, -5) // x >= 5
	p.AddIneq([]int64{-1}, 2) // x <= 2
	p.Simplify()
	if !p.IsEmptyRational() {
		t.Fatal("contradictory bounds should be empty")
	}
}

func TestSimplifyDedup(t *testing.T) {
	p := NewPoly(1)
	p.AddIneq([]int64{1}, 0)
	p.AddIneq([]int64{1}, 5)  // weaker
	p.AddIneq([]int64{1}, -2) // stronger: x >= 2
	p.Simplify()
	if len(p.Cons) != 1 || p.Cons[0].K != -2 {
		t.Fatalf("dedup should keep tightest constant, got %v", p.Cons)
	}
}

func TestIntersect(t *testing.T) {
	a := box(2, 0, 10)
	b := NewPoly(2)
	b.AddIneq([]int64{1, 1}, -5) // x+y >= 5
	c := Intersect(a, b)
	if !c.Contains([]int64{3, 3}) || c.Contains([]int64{1, 1}) {
		t.Fatal("Intersect wrong")
	}
}

func TestEliminateVarBox(t *testing.T) {
	// Project {0<=x<=3, 0<=y<=5, x<=y} onto x: 0<=x<=3 survives.
	p := box(2, 0, 5)
	p.AddRange(0, 0, 3)
	p.AddIneq([]int64{-1, 1}, 0) // y - x >= 0
	q, exact := p.EliminateVar(1)
	if !exact {
		t.Fatal("unit-coefficient elimination should be exact")
	}
	for x := int64(-2); x <= 7; x++ {
		want := x >= 0 && x <= 3
		if got := q.Contains([]int64{x}); got != want {
			t.Fatalf("projection wrong at x=%d: got %v want %v", x, got, want)
		}
	}
}

func TestEliminateVarEquality(t *testing.T) {
	// {x = y+1, 0<=y<=4} projected onto x gives 1<=x<=5.
	p := NewPoly(2)
	p.AddEq([]int64{1, -1}, -1) // x - y - 1 = 0
	p.AddRange(1, 0, 4)
	q, exact := p.EliminateVar(1)
	if !exact {
		t.Fatal("should be exact")
	}
	for x := int64(-1); x <= 7; x++ {
		want := x >= 1 && x <= 5
		if got := q.Contains([]int64{x}); got != want {
			t.Fatalf("x=%d got %v want %v", x, got, want)
		}
	}
}

func TestEliminateInexactFlag(t *testing.T) {
	// 2y = x: eliminating y through a coefficient-2 equality is inexact.
	p := NewPoly(2)
	p.AddEq([]int64{-1, 2}, 0)
	p.AddRange(1, 0, 4)
	_, exact := p.EliminateVar(1)
	if exact {
		t.Fatal("coefficient-2 elimination must report inexact")
	}
}

func TestIsEmptyRational(t *testing.T) {
	if box(2, 0, 3).IsEmptyRational() {
		t.Fatal("box should be non-empty")
	}
	p := box(1, 0, 3)
	p.AddIneq([]int64{1}, -10) // x >= 10
	if !p.IsEmptyRational() {
		t.Fatal("should be empty")
	}
	// Empty via chained elimination: x <= y, y <= z, z <= x-1.
	q := NewPoly(3)
	q.AddIneq([]int64{-1, 1, 0}, 0)
	q.AddIneq([]int64{0, -1, 1}, 0)
	q.AddIneq([]int64{1, 0, -1}, -1)
	if !q.IsEmptyRational() {
		t.Fatal("cyclic strict chain should be empty")
	}
}

func TestBindVar(t *testing.T) {
	p := box(3, 0, 4)
	p.AddEq([]int64{1, -1, 0}, 0) // x0 = x1
	q := p.BindVar(0, 2)
	if q.Dim != 2 {
		t.Fatal("BindVar should drop a dimension")
	}
	if !q.Contains([]int64{2, 3}) || q.Contains([]int64{3, 3}) {
		t.Fatal("BindVar substitution wrong")
	}
}

func TestInsertVars(t *testing.T) {
	p := box(2, 0, 3)
	q := p.InsertVars(1, 2)
	if q.Dim != 4 {
		t.Fatal("InsertVars dim wrong")
	}
	// Original x0 at col 0, x1 now at col 3; inserted cols unconstrained.
	if !q.Contains([]int64{0, 99, -99, 3}) || q.Contains([]int64{4, 0, 0, 0}) {
		t.Fatal("InsertVars constraint shift wrong")
	}
}

func TestSampleIntBox(t *testing.T) {
	p := box(3, 2, 7)
	pt, ok := p.SampleInt(4)
	if !ok || !p.Contains(pt) {
		t.Fatalf("sample failed: %v %v", pt, ok)
	}
}

func TestSampleIntPrefersSmall(t *testing.T) {
	p := NewPoly(2) // unconstrained
	pt, ok := p.SampleInt(4)
	if !ok || pt[0] != 0 || pt[1] != 0 {
		t.Fatalf("expected origin for unconstrained space, got %v", pt)
	}
}

func TestSampleIntEqualityDivisibility(t *testing.T) {
	// 3x = 2y, 1 <= x <= 10: needs x divisible by 2; smallest is x=2,y=3.
	p := NewPoly(2)
	p.AddEq([]int64{3, -2}, 0)
	p.AddRange(0, 1, 10)
	pt, ok := p.SampleInt(8)
	if !ok {
		t.Fatal("should find a point")
	}
	if 3*pt[0] != 2*pt[1] || pt[0] < 1 || pt[0] > 10 {
		t.Fatalf("bad point %v", pt)
	}
}

func TestSampleIntEmpty(t *testing.T) {
	p := box(1, 5, 3)
	if _, ok := p.SampleInt(4); ok {
		t.Fatal("empty polyhedron should not sample")
	}
}

func TestSampleIntIntegerEmptyRationalNonempty(t *testing.T) {
	// 2x = 1 within 0 <= x <= 1: rational point x=1/2 exists, integer none.
	p := NewPoly(1)
	p.AddRange(0, 0, 1)
	p.Cons = append(p.Cons, Constraint{Coef: []int64{2}, K: -1, Eq: true})
	if _, ok := p.SampleInt(4); ok {
		t.Fatal("no integer point exists")
	}
	if !p.IsEmptyInt(4) {
		t.Fatal("IsEmptyInt should be true")
	}
}

func TestEnumerate(t *testing.T) {
	p := box(2, 0, 2)
	pts, err := p.Enumerate(100)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 9 {
		t.Fatalf("expected 9 points, got %d", len(pts))
	}
	for _, pt := range pts {
		if !p.Contains(pt) {
			t.Fatalf("enumerated point %v not in polyhedron", pt)
		}
	}
}

func TestEnumerateTriangle(t *testing.T) {
	// 0 <= x <= y <= 3: 10 points.
	p := NewPoly(2)
	p.AddIneq([]int64{1, 0}, 0)
	p.AddIneq([]int64{-1, 1}, 0)
	p.AddIneq([]int64{0, -1}, 3)
	n, err := p.Count(100)
	if err != nil || n != 10 {
		t.Fatalf("triangle count=%d err=%v want 10", n, err)
	}
}

func TestEnumerateUnboundedFails(t *testing.T) {
	p := NewPoly(1)
	p.AddIneq([]int64{1}, 0) // x >= 0, unbounded above
	if _, err := p.Enumerate(100); err == nil {
		t.Fatal("unbounded enumeration should error")
	}
}

func TestEnumerateLimitExceeded(t *testing.T) {
	p := box(2, 0, 99)
	if _, err := p.Enumerate(10); err == nil {
		t.Fatal("limit should be enforced")
	}
}

func TestImpliedEqualities(t *testing.T) {
	// x >= 2 and x <= 2 implies x == 2.
	p := NewPoly(1)
	p.AddIneq([]int64{1}, -2)
	p.AddIneq([]int64{-1}, 2)
	eqs := p.ImpliedEqualities()
	if len(eqs) == 0 {
		t.Fatal("should detect implied equality")
	}
}

func TestProjectOnto(t *testing.T) {
	// {x=y+z, 0<=y,z<=2} onto x: 0..4.
	p := NewPoly(3)
	p.AddEq([]int64{1, -1, -1}, 0)
	p.AddRange(1, 0, 2)
	p.AddRange(2, 0, 2)
	q, exact := p.ProjectOnto([]int{0})
	if !exact {
		t.Fatal("should be exact")
	}
	for x := int64(-1); x <= 5; x++ {
		want := x >= 0 && x <= 4
		if got := q.Contains([]int64{x}); got != want {
			t.Fatalf("x=%d got %v want %v", x, got, want)
		}
	}
}

// Property test: for random small boxes with a random extra constraint,
// Enumerate agrees with brute force over a superset grid.
func TestEnumerateMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 150; iter++ {
		dim := 1 + rng.Intn(3)
		p := box(dim, 0, 4)
		// Random affine constraint with small coefficients.
		coef := make([]int64, dim)
		for i := range coef {
			coef[i] = int64(rng.Intn(5) - 2)
		}
		k := int64(rng.Intn(9) - 4)
		if rng.Intn(2) == 0 {
			p.AddIneq(coef, k)
		} else {
			p.AddEq(coef, k)
		}
		pts, err := p.Enumerate(10000)
		if err != nil {
			t.Fatal(err)
		}
		got := make(map[string]bool)
		for _, pt := range pts {
			got[ptKey(pt)] = true
		}
		// Brute force.
		var want int
		grid := make([]int64, dim)
		var rec func(d int)
		rec = func(d int) {
			if d == dim {
				if p.Contains(grid) {
					want++
					if !got[ptKey(grid)] {
						t.Fatalf("missing point %v in %s", grid, p)
					}
				}
				return
			}
			for v := int64(0); v <= 4; v++ {
				grid[d] = v
				rec(d + 1)
			}
		}
		rec(0)
		if want != len(pts) {
			t.Fatalf("count mismatch: enum=%d brute=%d poly=%s", len(pts), want, p)
		}
	}
}

// Property test: elimination preserves the projection of integer points for
// unit-coefficient systems.
func TestEliminationSoundOnIntegerPoints(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 100; iter++ {
		p := box(3, 0, 3)
		coef := []int64{int64(rng.Intn(3) - 1), int64(rng.Intn(3) - 1), int64(rng.Intn(3) - 1)}
		p.AddIneq(coef, int64(rng.Intn(5)-2))
		q, _ := p.EliminateVar(2)
		pts, err := p.Enumerate(10000)
		if err != nil {
			t.Fatal(err)
		}
		for _, pt := range pts {
			if !q.Contains(pt[:2]) {
				t.Fatalf("projection lost point %v", pt)
			}
		}
	}
}

func TestPolyString(t *testing.T) {
	p := NewPoly(2, "i", "j")
	p.AddIneq([]int64{1, 0}, 0)
	p.AddEq([]int64{1, -1}, 0)
	s := p.String()
	if s == "" || s == "{}" {
		t.Fatalf("String should render constraints, got %q", s)
	}
}

func ptKey(pt []int64) string { return string(appendPtKey(nil, pt)) }

// Simplify's constraint index falls back to a scan when a lookup's hash
// names an entry with another vector (a collision), and matches the kind.
func TestConIndexCollision(t *testing.T) {
	a := Constraint{Coef: []int64{1, 0}, K: 3}
	b := Constraint{Coef: []int64{0, 1}, K: 2}
	cons := []Constraint{a, b}
	idx := conIndex{}
	idx.add(conHash(a.Coef, false, false), 0)
	idx[conHash(b.Coef, false, false)] = 0 // b's hash names a's entry
	if got := idx.find(cons, conHash(b.Coef, false, false), b.Coef, false, false); got != 1 {
		t.Fatalf("find(b) = %d, want 1", got)
	}
	if got := idx.find(cons, conHash([]int64{-1, 0}, false, true), []int64{-1, 0}, false, true); got != 0 {
		t.Fatalf("find(a, negated) = %d, want 0", got)
	}
	if got := idx.find(cons, conHash(a.Coef, true, false), a.Coef, true, false); got != -1 {
		t.Fatalf("find(a as an equality) = %d, want -1", got)
	}
}
