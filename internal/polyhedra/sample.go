package polyhedra

import (
	"fmt"
	"math"
	"sort"
)

// boundsAt computes the integer bounds on variable j implied by the
// constraints of chain (a polyhedron over variables 0..j) once the prefix
// values v[0..j-1] are substituted. It returns lo, hi (using noLo/noHi
// sentinels for unbounded sides) and feasible=false when a constraint is
// already violated.
const (
	noLo = math.MinInt64 / 4
	noHi = math.MaxInt64 / 4
)

func boundsAt(chain *Poly, j int, v []int64) (lo, hi int64, feasible bool) {
	lo, hi = noLo, noHi
	for _, c := range chain.Cons {
		a := c.Coef[j]
		rest := c.K
		for q := 0; q < j; q++ {
			rest += c.Coef[q] * v[q]
		}
		if c.Eq {
			if a == 0 {
				if rest != 0 {
					return 0, 0, false
				}
				continue
			}
			// a*x + rest == 0 -> x = -rest/a, must divide.
			if rest%a != 0 {
				return 0, 0, false
			}
			val := -rest / a
			if val > lo {
				lo = val
			}
			if val < hi {
				hi = val
			}
			continue
		}
		switch {
		case a == 0:
			if rest < 0 {
				return 0, 0, false
			}
		case a > 0:
			// x >= ceil(-rest/a)
			b := ceilDiv(-rest, a)
			if b > lo {
				lo = b
			}
		default:
			// a<0: x <= floor(rest/(-a))
			b := floorDiv(rest, -a)
			if b < hi {
				hi = b
			}
		}
	}
	if lo > hi {
		return lo, hi, false
	}
	return lo, hi, true
}

func ceilDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) == (b < 0) {
		q++
	}
	return q
}

// eliminationChain returns chain[j] = p with variables j..Dim-1 projected
// out, so chain[j] constrains variables 0..j-1 (chain[Dim] == p itself). It
// returns nil as soon as a projection has no rational points: then p has
// none either, which the 0-dimensional chain[0] would also have shown.
func (p *Poly) eliminationChain() []*Poly {
	chain := make([]*Poly, p.Dim+1)
	chain[p.Dim] = p
	cur := p
	for j := p.Dim - 1; j >= 0; j-- {
		cur, _ = cur.EliminateVar(j)
		if !cur.hasPoints() {
			return nil
		}
		chain[j] = cur
	}
	return chain
}

// SampleInt searches for an integer point of p, preferring coordinates of
// small magnitude. Unbounded coordinate directions are searched within
// [-radius, +radius] (so a "not found" answer on an unbounded polyhedron is
// relative to the radius; every coefficient space searched by the optimizer
// admits small solutions when feasible). It returns the point and whether
// one was found. A polyhedron with no rational points is answered by its
// elimination chain, before any search.
func (p *Poly) SampleInt(radius int64) ([]int64, bool) {
	q := p.shallow()
	if !q.Simplify() {
		return nil, false
	}
	if q.Dim == 0 {
		if q.hasPoints() {
			return []int64{}, true
		}
		return nil, false
	}
	chain := q.eliminationChain()
	if chain == nil {
		return nil, false
	}
	v := make([]int64, q.Dim)
	if sampleDFS(q, chain, 0, v, radius) {
		return v, true
	}
	return nil, false
}

func sampleDFS(p *Poly, chain []*Poly, j int, v []int64, radius int64) bool {
	if j == p.Dim {
		return p.Contains(v)
	}
	lo, hi, ok := boundsAt(chain[j+1], j, v[:j])
	if !ok {
		return false
	}
	for _, cand := range candidateValues(lo, hi, radius) {
		v[j] = cand
		if sampleDFS(p, chain, j+1, v, radius) {
			return true
		}
	}
	return false
}

// candidateValues lists integers of [lo,hi] (clamped by radius on unbounded
// sides) in order of increasing magnitude, preferring non-negative on ties.
func candidateValues(lo, hi, radius int64) []int64 {
	if lo == noLo && hi == noHi {
		lo, hi = -radius, radius
	} else if lo == noLo {
		lo = hi - 2*radius
		if lo > -radius {
			lo = -radius
		}
	} else if hi == noHi {
		hi = lo + 2*radius
		if hi < radius {
			hi = radius
		}
	}
	if lo > hi {
		return nil
	}
	n := hi - lo + 1
	const maxCands = 4096
	if n > maxCands {
		n = maxCands
		// Keep the window closest to zero.
		switch {
		case lo > 0: // all positive: take the low end
			hi = lo + n - 1
		case hi < 0: // all negative: take the high end
			lo = hi - n + 1
		default:
			half := n / 2
			lo2, hi2 := -half, half
			if lo2 < lo {
				lo2 = lo
			}
			if hi2 > hi {
				hi2 = hi
			}
			lo, hi = lo2, hi2
		}
	}
	out := make([]int64, 0, hi-lo+1)
	for x := lo; x <= hi; x++ {
		out = append(out, x)
	}
	sort.Slice(out, func(a, b int) bool {
		av, bv := abs64(out[a]), abs64(out[b])
		if av != bv {
			return av < bv
		}
		return out[a] > out[b] // prefer +x before -x
	})
	return out
}

// Enumerate returns every integer point of p, up to limit points. It returns
// an error if some variable is unbounded or the limit is exceeded; iteration
// domains at the block level are small, so enumeration is exact and cheap
// for costing and execution (DESIGN.md substitution S3).
func (p *Poly) Enumerate(limit int) ([][]int64, error) {
	q := p.Clone()
	if !q.Simplify() {
		return nil, nil
	}
	if q.Dim == 0 {
		if q.hasPoints() {
			return [][]int64{{}}, nil
		}
		return nil, nil
	}
	chain := q.eliminationChain()
	if chain == nil {
		return nil, nil
	}
	var out [][]int64
	v := make([]int64, q.Dim)
	var rec func(j int) error
	rec = func(j int) error {
		if j == q.Dim {
			if q.Contains(v) {
				if len(out) >= limit {
					return fmt.Errorf("polyhedra: enumeration exceeds limit %d", limit)
				}
				pt := make([]int64, len(v))
				copy(pt, v)
				out = append(out, pt)
			}
			return nil
		}
		lo, hi, ok := boundsAt(chain[j+1], j, v[:j])
		if !ok {
			return nil
		}
		if lo == noLo || hi == noHi {
			return fmt.Errorf("polyhedra: variable %s unbounded during enumeration", q.name(j))
		}
		for x := lo; x <= hi; x++ {
			v[j] = x
			if err := rec(j + 1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := rec(0); err != nil {
		return nil, err
	}
	return out, nil
}

// Count returns the exact number of integer points (via Enumerate).
func (p *Poly) Count(limit int) (int, error) {
	pts, err := p.Enumerate(limit)
	if err != nil {
		return 0, err
	}
	return len(pts), nil
}
