package polyhedra

import (
	"math/rand"
	"reflect"
	"testing"
)

// randPoly builds a random bounded polyhedron with small coefficients.
func randPoly(rng *rand.Rand, dim int) *Poly {
	p := box(dim, 0, int64(2+rng.Intn(4)))
	extra := rng.Intn(3)
	for e := 0; e < extra; e++ {
		coef := make([]int64, dim)
		for i := range coef {
			coef[i] = int64(rng.Intn(5) - 2)
		}
		k := int64(rng.Intn(7) - 3)
		if rng.Intn(4) == 0 {
			p.AddEq(coef, k)
		} else {
			p.AddIneq(coef, k)
		}
	}
	return p
}

// Property: SampleInt succeeds exactly when Enumerate finds points, and the
// sample is one of them.
func TestSampleEnumerateConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for iter := 0; iter < 300; iter++ {
		dim := 1 + rng.Intn(3)
		p := randPoly(rng, dim)
		pts, err := p.Enumerate(100000)
		if err != nil {
			t.Fatal(err)
		}
		sample, ok := p.SampleInt(8)
		if ok != (len(pts) > 0) {
			t.Fatalf("sample ok=%v but %d points exist in %s", ok, len(pts), p)
		}
		if ok && !p.Contains(sample) {
			t.Fatalf("sample %v not in polyhedron %s", sample, p)
		}
	}
}

// Property: intersection of two random polyhedra contains exactly the
// points in both.
func TestIntersectionSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 150; iter++ {
		dim := 1 + rng.Intn(2)
		a := randPoly(rng, dim)
		b := randPoly(rng, dim)
		c := Intersect(a, b)
		pts, err := box(dim, -1, 7).Enumerate(100000)
		if err != nil {
			t.Fatal(err)
		}
		for _, pt := range pts {
			want := a.Contains(pt) && b.Contains(pt)
			if got := c.Contains(pt); got != want {
				t.Fatalf("intersection wrong at %v: got %v want %v", pt, got, want)
			}
		}
	}
}

// Property: Simplify never changes the integer point set.
func TestSimplifyPreservesPoints(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for iter := 0; iter < 200; iter++ {
		dim := 1 + rng.Intn(3)
		p := randPoly(rng, dim)
		q := p.Clone()
		feasible := q.Simplify()
		grid, err := box(dim, -1, 7).Enumerate(100000)
		if err != nil {
			t.Fatal(err)
		}
		any := false
		for _, pt := range grid {
			want := p.Contains(pt)
			any = any || want
			if got := q.Contains(pt); got != want {
				t.Fatalf("Simplify changed membership at %v:\nbefore %s\nafter %s", pt, p, q)
			}
		}
		if !feasible && any {
			t.Fatalf("Simplify declared empty but points exist: %s", p)
		}
	}
}

// Property: projection contains exactly the shadows of integer points for
// unit-coefficient systems (exact case), and at least the shadows otherwise
// (sound over-approximation).
func TestProjectionSoundness(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for iter := 0; iter < 150; iter++ {
		p := randPoly(rng, 3)
		proj, exact := p.EliminateVar(2)
		pts, err := p.Enumerate(100000)
		if err != nil {
			t.Fatal(err)
		}
		shadow := map[[2]int64]bool{}
		for _, pt := range pts {
			shadow[[2]int64{pt[0], pt[1]}] = true
			if !proj.Contains(pt[:2]) {
				t.Fatalf("projection lost point %v of %s", pt, p)
			}
		}
		if !exact {
			continue
		}
		// Exact: every projected integer point must have a preimage.
		ppts, err := proj.Enumerate(100000)
		if err != nil {
			continue // unbounded projection; skip
		}
		for _, q := range ppts {
			if !shadow[[2]int64{q[0], q[1]}] {
				t.Fatalf("exact projection invented point %v for %s", q, p)
			}
		}
	}
}

// Property: subtraction then union restores the original point set.
func TestSubtractUnionRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for iter := 0; iter < 100; iter++ {
		a := randPoly(rng, 2)
		b := randPoly(rng, 2)
		diff := FromPoly(a).SubtractPoly(b)
		both := IntersectSet(FromPoly(a), FromPoly(b))
		grid, err := box(2, -1, 7).Enumerate(100000)
		if err != nil {
			t.Fatal(err)
		}
		for _, pt := range grid {
			inA := a.Contains(pt)
			got := diff.Contains(pt) || both.Contains(pt)
			if got != inA {
				t.Fatalf("A != (A\\B) ∪ (A∩B) at %v", pt)
			}
		}
	}
}

// randSet builds a random union of up to four pieces over free+bound
// variables. Each piece is a randPoly, plus, for some free variables, an
// upper bound by one of the bound variables (an extent's x <= n - 1), so
// that binding them empties some pieces at some values and not others.
func randSet(rng *rand.Rand, free, bound int) *Set {
	dim := free + bound
	s := NewSet(dim)
	for k := 1 + rng.Intn(4); k > 0; k-- {
		p := randPoly(rng, dim)
		for i := 0; i < free; i++ {
			if rng.Intn(2) == 0 {
				coef := make([]int64, dim)
				coef[i], coef[free+rng.Intn(bound)] = -1, 1
				p.AddIneq(coef, -1)
			}
		}
		s.AddPiece(p)
	}
	return s
}

// Property: binding several variables at once keeps the pieces, and so the
// integer points in the same order, that binding them one at a time keeps.
func TestBindVarsMatchesChainedBindVar(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	dropped := 0
	for iter := 0; iter < 500; iter++ {
		free, bound := 1+rng.Intn(3), 1+rng.Intn(3)
		s := randSet(rng, free, bound)
		// The bound block sits at the end (an extent's parameters) or
		// anywhere.
		start := free
		if iter%2 == 1 {
			start = rng.Intn(free + 1)
		}
		vals := make([]int64, bound)
		for i := range vals {
			vals[i] = int64(rng.Intn(8) - 1)
		}
		got := s.BindVars(start, vals)
		want := s
		for i := bound - 1; i >= 0; i-- {
			want = want.BindVar(start+i, vals[i])
		}
		if len(got.Ps) != len(want.Ps) {
			t.Fatalf("BindVars(%d, %v) kept %d pieces, chained BindVar %d, of %s", start, vals, len(got.Ps), len(want.Ps), s)
		}
		dropped += len(s.Ps) - len(got.Ps)
		gotPts, err := got.Enumerate(100000)
		if err != nil {
			t.Fatal(err)
		}
		wantPts, err := want.Enumerate(100000)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotPts, wantPts) {
			t.Fatalf("BindVars(%d, %v) points %v, chained BindVar %v, of %s", start, vals, gotPts, wantPts, s)
		}
	}
	if dropped == 0 {
		t.Fatal("no binding emptied a piece")
	}
}

// randHalfspaces builds a polyhedron from a few random constraints and no
// box, so that some directions are unbounded.
func randHalfspaces(rng *rand.Rand, dim int) *Poly {
	p := NewPoly(dim)
	for e := 1 + rng.Intn(4); e > 0; e-- {
		coef := make([]int64, dim)
		for i := range coef {
			coef[i] = int64(rng.Intn(5) - 2)
		}
		k := int64(rng.Intn(7) - 3)
		if rng.Intn(4) == 0 {
			p.AddEq(coef, k)
		} else {
			p.AddIneq(coef, k)
		}
	}
	return p
}

// hasPointIn reports whether p contains an integer point of [lo, hi]^Dim,
// by brute force over the grid.
func hasPointIn(p *Poly, lo, hi int64) bool {
	pt := make([]int64, p.Dim)
	for i := range pt {
		pt[i] = lo
	}
	for {
		if p.Contains(pt) {
			return true
		}
		i := 0
		for ; i < len(pt) && pt[i] == hi; i++ {
			pt[i] = lo
		}
		if i == len(pt) {
			return false
		}
		pt[i]++
	}
}

// Property: IsEmptyInt, which reads rational emptiness from SampleInt's
// own elimination chain, answers as its earlier definition did: a full
// rational test first, then sampling. Over bounded, unbounded and Rational
// polyhedra, with both answers seen. Brute force backs both: a bounded
// polyhedron (inside [0, 5]^Dim) is empty exactly when no point of the
// grid is in it, and an unbounded one with a point of [-2, 2]^Dim is not
// empty.
func TestIsEmptyIntMatchesRationalThenSample(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var empty, nonEmpty int
	for iter := 0; iter < 900; iter++ {
		dim := 1 + rng.Intn(4)
		var p *Poly
		bounded := iter%3 == 0 || (iter%3 == 2 && rng.Intn(2) == 0)
		if bounded {
			p = randPoly(rng, dim)
		} else {
			p = randHalfspaces(rng, dim)
		}
		p.Rational = iter%3 == 2
		for _, radius := range []int64{2, 8} {
			_, sampled := p.SampleInt(radius)
			want := p.IsEmptyRational() || !sampled
			got := p.IsEmptyInt(radius)
			if got != want {
				t.Fatalf("IsEmptyInt(%d) = %v, rational test then sampling %v, on %s (rational=%v)", radius, got, want, p, p.Rational)
			}
			if bounded && got == hasPointIn(p, 0, 5) {
				t.Fatalf("IsEmptyInt(%d) = %v on bounded %s (rational=%v), brute force disagrees", radius, got, p, p.Rational)
			}
			if !bounded && got && hasPointIn(p, -2, 2) {
				t.Fatalf("IsEmptyInt(%d) = true on %s (rational=%v), which has a point in [-2, 2]^%d", radius, p, p.Rational, p.Dim)
			}
			if got {
				empty++
			} else {
				nonEmpty++
			}
		}
	}
	if empty == 0 || nonEmpty == 0 {
		t.Fatalf("%d empty and %d non-empty answers; want both", empty, nonEmpty)
	}
}
