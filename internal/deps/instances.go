package deps

import (
	"fmt"

	"riotshare/internal/prog"
)

// MaxStatementInstances bounds the instances Instances enumerates for one
// statement.
const MaxStatementInstances = 10_000_000

// Instances is every statement instance of an analysis's program at its
// parameter values. Numbering the instances statement by statement, in
// enumeration order, gives each one an ordinal; Ordinal finds it from the
// statement and instance vector without building a key.
type Instances struct {
	// Of lists each statement's instances, by statement ID.
	Of [][][]int64
	// N is the number of instances of all statements.
	N     int
	index []instIndex // by statement ID
}

// instIndex finds one statement's instances by their offset in the
// bounding box of its domain, dense when the box is not much larger than
// the domain and through a map otherwise.
type instIndex struct {
	base   int     // ordinal of the statement's first instance
	lo     []int64 // the box's least point
	extent []int64 // the box's size per dimension
	dense  []int32 // by box offset, the local index + 1 (0: no instance)
	sparse map[int64]int32
}

// Instances enumerates every statement's instances on first use and keeps
// them for the analysis's lifetime, so that lowering each plan of one
// analysis enumerates nothing. It is safe for concurrent use.
func (an *Analysis) Instances() (*Instances, error) {
	an.instOnce.Do(func() { an.insts, an.instErr = enumerateInstances(an.Prog) })
	return an.insts, an.instErr
}

func enumerateInstances(p *prog.Program) (*Instances, error) {
	in := &Instances{Of: make([][][]int64, len(p.Stmts)), index: make([]instIndex, len(p.Stmts))}
	for _, st := range p.Stmts {
		xs, err := p.Instances(st, MaxStatementInstances)
		if err != nil {
			return nil, fmt.Errorf("deps: enumerating %s: %w", st.Name, err)
		}
		ix, err := newInstIndex(xs, st.Ds())
		if err != nil {
			return nil, fmt.Errorf("deps: indexing %s: %w", st.Name, err)
		}
		ix.base = in.N
		in.Of[st.ID], in.index[st.ID] = xs, ix
		in.N += len(xs)
	}
	return in, nil
}

func newInstIndex(xs [][]int64, ds int) (instIndex, error) {
	ix := instIndex{lo: make([]int64, ds), extent: make([]int64, ds)}
	if len(xs) == 0 {
		return ix, nil
	}
	hi := make([]int64, ds)
	copy(ix.lo, xs[0])
	copy(hi, xs[0])
	for _, x := range xs[1:] {
		for d, v := range x {
			ix.lo[d], hi[d] = min(ix.lo[d], v), max(hi[d], v)
		}
	}
	const maxBox = 1 << 62
	volume := int64(1)
	for d := range ix.extent {
		ix.extent[d] = hi[d] - ix.lo[d] + 1
		if ix.extent[d] <= 0 || volume > maxBox/ix.extent[d] {
			return ix, fmt.Errorf("instance bounding box overflows")
		}
		volume *= ix.extent[d]
	}
	if volume <= 4*int64(len(xs))+1024 {
		ix.dense = make([]int32, volume)
	} else {
		ix.sparse = make(map[int64]int32, len(xs))
	}
	for i, x := range xs {
		off, _ := ix.offset(x)
		if ix.dense != nil {
			ix.dense[off] = int32(i + 1)
		} else {
			ix.sparse[off] = int32(i + 1)
		}
	}
	return ix, nil
}

// offset returns x's offset in the bounding box, or false outside it.
func (ix *instIndex) offset(x []int64) (int64, bool) {
	var off int64
	for d, v := range x {
		v -= ix.lo[d]
		if v < 0 || v >= ix.extent[d] {
			return 0, false
		}
		off = off*ix.extent[d] + v
	}
	return off, true
}

// Ordinal returns the ordinal of statement stmtID's instance x, or false
// when x is not one of its instances.
func (in *Instances) Ordinal(stmtID int, x []int64) (int, bool) {
	ix := &in.index[stmtID]
	off, ok := ix.offset(x)
	if !ok {
		return 0, false
	}
	var slot int32
	if ix.dense != nil {
		slot = ix.dense[off]
	} else {
		slot = ix.sparse[off]
	}
	if slot == 0 {
		return 0, false
	}
	return ix.base + int(slot) - 1, true
}
