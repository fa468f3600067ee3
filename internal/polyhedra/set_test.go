package polyhedra

import (
	"math/rand"
	"testing"
)

func interval(lo, hi int64) *Poly {
	return box(1, lo, hi)
}

func TestSetUnionEnumerate(t *testing.T) {
	s := NewSet(1)
	s.AddPiece(interval(0, 2))
	s.AddPiece(interval(5, 6))
	pts, err := s.Enumerate(100)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 5 {
		t.Fatalf("want 5 points got %d", len(pts))
	}
}

func TestSetEnumerateDedup(t *testing.T) {
	s := NewSet(1)
	s.AddPiece(interval(0, 3))
	s.AddPiece(interval(2, 5)) // overlap 2,3
	pts, err := s.Enumerate(100)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 6 {
		t.Fatalf("union 0..5 should have 6 points, got %d", len(pts))
	}
}

// Enumerate's limit counts the points of the union, not of each piece.
func TestSetEnumerateLimitCountsUnion(t *testing.T) {
	s := NewSet(1)
	s.AddPiece(interval(0, 2))
	s.AddPiece(interval(2, 4)) // overlap 2: five points in all
	if _, err := s.Enumerate(4); err == nil {
		t.Fatal("five points under limit 4 should fail")
	}
	if pts, err := s.Enumerate(5); err != nil || len(pts) != 5 {
		t.Fatalf("limit 5: %d points, error %v; want 5 points", len(pts), err)
	}
}

func TestSetAddPieceDropsEmpty(t *testing.T) {
	s := NewSet(1)
	s.AddPiece(interval(5, 3))
	if len(s.Ps) != 0 {
		t.Fatal("empty piece should be dropped")
	}
	if !s.IsEmpty() {
		t.Fatal("set should be empty")
	}
}

func TestSubtractPolyInterval(t *testing.T) {
	// [0,9] minus [3,5] = [0,2] ∪ [6,9].
	s := FromPoly(interval(0, 9))
	d := s.SubtractPoly(interval(3, 5))
	pts, err := d.Enumerate(100)
	if err != nil {
		t.Fatal(err)
	}
	want := map[int64]bool{0: true, 1: true, 2: true, 6: true, 7: true, 8: true, 9: true}
	if len(pts) != len(want) {
		t.Fatalf("got %d points want %d: %v", len(pts), len(want), pts)
	}
	for _, pt := range pts {
		if !want[pt[0]] {
			t.Fatalf("unexpected point %v", pt)
		}
	}
}

func TestSubtractEquality(t *testing.T) {
	// [0,4] minus {x == 2}.
	eq := NewPoly(1)
	eq.AddEq([]int64{1}, -2)
	d := FromPoly(interval(0, 4)).SubtractPoly(eq)
	pts, _ := d.Enumerate(100)
	if len(pts) != 4 {
		t.Fatalf("want 4 points got %d: %v", len(pts), pts)
	}
	for _, pt := range pts {
		if pt[0] == 2 {
			t.Fatal("x=2 should have been removed")
		}
	}
}

func TestSubtractDisjointPieces(t *testing.T) {
	// Result pieces of subtraction must be disjoint (chain decomposition).
	s := FromPoly(box(2, 0, 5))
	hole := box(2, 2, 3)
	d := s.SubtractPoly(hole)
	seen := make(map[string]int)
	for _, p := range d.Ps {
		pts, err := p.Enumerate(1000)
		if err != nil {
			t.Fatal(err)
		}
		for _, pt := range pts {
			seen[ptKey(pt)]++
		}
	}
	for k, n := range seen {
		if n > 1 {
			t.Fatalf("point %s appears in %d pieces (should be disjoint)", k, n)
		}
	}
	// 36 - 4 = 32 points.
	if len(seen) != 32 {
		t.Fatalf("want 32 surviving points got %d", len(seen))
	}
}

func TestIntersectSet(t *testing.T) {
	a := NewSet(1)
	a.AddPiece(interval(0, 4))
	a.AddPiece(interval(8, 10))
	b := FromPoly(interval(3, 9))
	c := IntersectSet(a, b)
	pts, _ := c.Enumerate(100)
	want := map[int64]bool{3: true, 4: true, 8: true, 9: true}
	if len(pts) != len(want) {
		t.Fatalf("got %v", pts)
	}
}

func TestSetContains(t *testing.T) {
	s := NewSet(1)
	s.AddPiece(interval(0, 1))
	s.AddPiece(interval(5, 5))
	if !s.Contains([]int64{5}) || s.Contains([]int64{3}) {
		t.Fatal("Set.Contains wrong")
	}
}

func TestSetProjectOnto(t *testing.T) {
	// {(x,y) : y=x, 0<=x<=2} ∪ {(x,y) : y=x+10, 4<=x<=5} onto x.
	p1 := NewPoly(2)
	p1.AddEq([]int64{1, -1}, 0)
	p1.AddRange(0, 0, 2)
	p2 := NewPoly(2)
	p2.AddEq([]int64{1, -1}, -10)
	p2.AddRange(0, 4, 5)
	s := NewSet(2)
	s.AddPiece(p1)
	s.AddPiece(p2)
	proj, exact := s.ProjectOnto([]int{0})
	if !exact {
		t.Fatal("projection should be exact")
	}
	pts, _ := proj.Enumerate(100)
	if len(pts) != 5 {
		t.Fatalf("want 5 points got %v", pts)
	}
}

func TestSetBindVar(t *testing.T) {
	p := NewPoly(2)
	p.AddEq([]int64{1, -1}, 0)
	p.AddRange(0, 0, 5)
	s := FromPoly(p)
	b := s.BindVar(0, 3)
	pts, _ := b.Enumerate(100)
	if len(pts) != 1 || pts[0][0] != 3 {
		t.Fatalf("BindVar wrong: %v", pts)
	}
}

// Property: A \ B ∪ (A ∩ B) == A on integer points, and (A\B) ∩ B == ∅.
func TestSubtractPartitionProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for iter := 0; iter < 80; iter++ {
		a := box(2, 0, 4)
		b := box(2, int64(rng.Intn(4)), int64(rng.Intn(5)+1))
		coef := []int64{int64(rng.Intn(3) - 1), int64(rng.Intn(3) - 1)}
		b.AddIneq(coef, int64(rng.Intn(4)-1))
		diff := FromPoly(a).SubtractPoly(b)
		aPts, err := a.Enumerate(10000)
		if err != nil {
			t.Fatal(err)
		}
		for _, pt := range aPts {
			inB := b.Contains(pt)
			inDiff := diff.Contains(pt)
			if inB && inDiff {
				t.Fatalf("point %v in both B and A\\B", pt)
			}
			if !inB && !inDiff {
				t.Fatalf("point %v lost from A\\B", pt)
			}
		}
	}
}

func TestSetString(t *testing.T) {
	s := NewSet(1)
	if s.String() != "{}" {
		t.Fatal("empty set string")
	}
	s.AddPiece(interval(0, 1))
	if s.String() == "{}" {
		t.Fatal("non-empty set should render")
	}
}
