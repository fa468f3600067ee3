package polyhedra

import (
	"fmt"
	"strconv"
	"strings"

	"riotshare/internal/linalg"
)

// Set is a finite union of basic polyhedra over the same space. Extent
// polyhedra of co-accesses are naturally unions (the lexicographic order
// constraint Θx ≺ Θ'x' is a disjunction over depths, Definition 1), so every
// relation the analyzer manipulates is a Set.
type Set struct {
	Dim   int
	Names []string
	Ps    []*Poly
}

// NewSet returns an empty set (no pieces) over dim variables.
func NewSet(dim int, names ...string) *Set {
	if len(names) != 0 && len(names) != dim {
		panic("polyhedra: set names length mismatch")
	}
	return &Set{Dim: dim, Names: append([]string(nil), names...)}
}

// FromPoly wraps a single basic polyhedron as a set.
func FromPoly(p *Poly) *Set {
	return &Set{Dim: p.Dim, Names: p.Names, Ps: []*Poly{p}}
}

// Clone returns a deep copy.
func (s *Set) Clone() *Set {
	t := NewSet(s.Dim, s.Names...)
	for _, p := range s.Ps {
		t.Ps = append(t.Ps, p.Clone())
	}
	return t
}

// AddPiece appends a basic polyhedron to the union, dropping it if trivially
// empty.
func (s *Set) AddPiece(p *Poly) *Set {
	if p.Dim != s.Dim {
		panic("polyhedra: AddPiece dimension mismatch")
	}
	q := p.Clone()
	if q.Simplify() && !q.IsEmptyRational() {
		s.Ps = append(s.Ps, q)
	}
	return s
}

// IntersectSet intersects two sets (cross product of pieces). Pieces that
// simplify to an obvious contradiction are dropped; a full emptiness check
// is deliberately not run here (hot path — callers that need definite
// emptiness use IsEmpty or sampling).
func IntersectSet(a, b *Set) *Set {
	if a.Dim != b.Dim {
		panic("polyhedra: IntersectSet dimension mismatch")
	}
	out := NewSet(a.Dim, a.Names...)
	for _, p := range a.Ps {
		for _, q := range b.Ps {
			r := Intersect(p, q)
			if r.Simplify() {
				out.Ps = append(out.Ps, r)
			}
		}
	}
	return out
}

// IntersectPoly intersects every piece with a basic polyhedron (cheap
// simplification only; see IntersectSet).
func (s *Set) IntersectPoly(p *Poly) *Set {
	out := NewSet(s.Dim, s.Names...)
	for _, q := range s.Ps {
		r := Intersect(q, p)
		if r.Simplify() {
			out.Ps = append(out.Ps, r)
		}
	}
	return out
}

// IsEmpty reports whether every piece is rationally empty.
func (s *Set) IsEmpty() bool {
	for _, p := range s.Ps {
		if !p.IsEmptyRational() {
			return false
		}
	}
	return true
}

// IsEmptyInt reports whether the set has no integer points (sampling-based;
// see Poly.IsEmptyInt).
func (s *Set) IsEmptyInt(radius int64) bool {
	for _, p := range s.Ps {
		if !p.IsEmptyInt(radius) {
			return false
		}
	}
	return true
}

// Contains reports whether some piece contains the point.
func (s *Set) Contains(pt []int64) bool {
	for _, p := range s.Ps {
		if p.Contains(pt) {
			return true
		}
	}
	return false
}

// SubtractPoly returns s minus the integer points of b, as a new set. The
// standard chain decomposition keeps the result disjoint and exact on
// integer points: negating an inequality e >= 0 yields -e-1 >= 0, and an
// equality splits into e-1 >= 0 and -e-1 >= 0.
func (s *Set) SubtractPoly(b *Poly) *Set {
	if s.Dim != b.Dim {
		panic("polyhedra: SubtractPoly dimension mismatch")
	}
	out := NewSet(s.Dim, s.Names...)
	for _, piece := range s.Ps {
		cur := piece.Clone()
		for _, c := range b.Cons {
			if c.Eq {
				p1 := cur.Clone().AddIneq(c.Coef, c.K-1)                       // e - 1 >= 0, i.e. e >= 1
				p2 := cur.Clone().AddIneq(linalg.ScaleVec(-1, c.Coef), -c.K-1) // -e - 1 >= 0, i.e. e <= -1
				out.AddPiece(p1)
				out.AddPiece(p2)
				cur.AddEq(c.Coef, c.K)
			} else {
				p1 := cur.Clone().AddIneq(linalg.ScaleVec(-1, c.Coef), -c.K-1) // violates c
				out.AddPiece(p1)
				cur.AddIneq(c.Coef, c.K)
			}
			if !cur.Simplify() {
				break
			}
		}
	}
	return out
}

// ProjectOnto projects every piece onto the kept columns; exact reports
// whether all eliminations were integer-exact.
func (s *Set) ProjectOnto(keep []int) (*Set, bool) {
	var names []string
	if len(s.Names) == s.Dim {
		for _, k := range keep {
			names = append(names, s.Names[k])
		}
	}
	out := NewSet(len(keep), names...)
	exact := true
	for _, p := range s.Ps {
		q, e := p.ProjectOnto(keep)
		exact = exact && e
		out.AddPiece(q)
	}
	return out, exact
}

// Enumerate returns the integer points of the union, deduplicated, in piece
// order. It fails if some piece is unbounded or the union has more than
// limit points.
func (s *Set) Enumerate(limit int) ([][]int64, error) {
	if len(s.Ps) == 1 {
		return s.Ps[0].Enumerate(limit)
	}
	seen := make(map[string]bool)
	var out [][]int64
	var key []byte
	for _, p := range s.Ps {
		pts, err := p.Enumerate(limit)
		if err != nil {
			return nil, err
		}
		for _, pt := range pts {
			key = appendPtKey(key[:0], pt)
			if seen[string(key)] {
				continue
			}
			if len(out) == limit {
				return nil, fmt.Errorf("polyhedra: enumeration exceeds limit %d", limit)
			}
			seen[string(key)] = true
			out = append(out, pt)
		}
	}
	return out, nil
}

// appendPtKey appends the point's coordinates to buf as "x0,x1,...,".
func appendPtKey(buf []byte, pt []int64) []byte {
	for _, x := range pt {
		buf = append(strconv.AppendInt(buf, x, 10), ',')
	}
	return buf
}

// SampleInt finds an integer point in any piece.
func (s *Set) SampleInt(radius int64) ([]int64, bool) {
	for _, p := range s.Ps {
		if pt, ok := p.SampleInt(radius); ok {
			return pt, true
		}
	}
	return nil, false
}

// BindVar substitutes a value for variable i in every piece, dropping the
// pieces that become empty.
func (s *Set) BindVar(i int, v int64) *Set {
	var names []string
	if len(s.Names) == s.Dim {
		names = append(append([]string(nil), s.Names[:i]...), s.Names[i+1:]...)
	}
	out := NewSet(s.Dim-1, names...)
	for _, p := range s.Ps {
		out.AddPiece(p.BindVar(i, v))
	}
	return out
}

// BindVars substitutes vals[k] for variable start+k in every piece, then
// simplifies each bound piece and tests it for rational emptiness once,
// dropping the pieces found empty. A piece empty after binding some of the
// variables is empty after binding all of them, so one BindVars keeps the
// pieces a chain of BindVar calls keeps, at one emptiness test per piece.
func (s *Set) BindVars(start int, vals []int64) *Set {
	var names []string
	if len(s.Names) == s.Dim {
		names = append(append([]string(nil), s.Names[:start]...), s.Names[start+len(vals):]...)
	}
	out := NewSet(s.Dim-len(vals), names...)
	for _, p := range s.Ps {
		q := p.BindVars(start, vals)
		if q.Simplify() && !q.IsEmptyRational() {
			out.Ps = append(out.Ps, q)
		}
	}
	return out
}

// String renders the union.
func (s *Set) String() string {
	if len(s.Ps) == 0 {
		return "{}"
	}
	parts := make([]string, len(s.Ps))
	for i, p := range s.Ps {
		parts[i] = p.String()
	}
	return strings.Join(parts, " or ")
}
