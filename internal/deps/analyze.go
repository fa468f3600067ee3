package deps

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"sync"

	"riotshare/internal/polyhedra"
	"riotshare/internal/prog"
)

// Analysis holds the extracted dependences and sharing opportunities of a
// program under its original schedule, fully preprocessed: both are
// no-write-in-between, and sharing opportunities are one-one (§5.1).
type Analysis struct {
	Prog *prog.Program
	Orig *prog.Schedule
	// Deps are the data dependences (types R→W, W→R, W→W with non-empty
	// extent, Definition 2).
	Deps []*CoAccess
	// Shares are the I/O sharing opportunities (types W→R, W→W, R→R with
	// non-empty extent, Definition 3), multiplicity-reduced to one-one.
	Shares []*CoAccess
	// Dropped lists sharing opportunities that could not be reduced to
	// one-one form and were discarded (none occur in the paper's programs).
	Dropped []*CoAccess

	// instOnce computes insts and instErr, Instances' answer.
	instOnce sync.Once
	insts    *Instances
	instErr  error
}

// Options controls analysis behaviour.
type Options struct {
	// BindParams, when true, substitutes the program's parameter binding
	// into all extents before emptiness checks, so opportunities that are
	// empty for the concrete sizes (e.g. s2RC→s2RC when n3=1, §6.1) are
	// dropped, matching the paper's per-configuration analysis. When false
	// the analysis is fully parametric.
	BindParams bool
	// SkipMultiplicityReduction disables Remark A.1's reduction, used by the
	// ablation benchmarks.
	SkipMultiplicityReduction bool
}

// Analyze extracts dependences and sharing opportunities from the program
// (§4.3) and preprocesses them (§5.1). It is Prepare followed by Bind on
// the same program, run to completion.
func Analyze(p *prog.Program, opt Options) (*Analysis, error) {
	ctx := context.Background() //riotvet:allow ctxflow — compatibility wrapper; cancelable callers use Prepare and Bind
	pr, err := Prepare(ctx, p, opt)
	if err != nil {
		return nil, err
	}
	an, _, err := pr.Bind(ctx, p)
	return an, err
}

// Prepared is the parametric half of the analysis of one program shape:
// for every pair of accesses to the same array, the extent (Definition 1),
// the extent after no-write-in-between, and the multiplicity-reduced
// sharing extent (§5.1). None of it reads the parameter values, so it holds
// for every program with the same statements, accesses and domains,
// whatever its sizes and array names. Prepare builds the extents; the
// other two steps, nine tenths of the work, run the first time a Bind
// finds a pair's previous step non-empty at its program's sizes, and are
// kept for every later Bind. A miss therefore costs what one whole
// analysis of the program costs, and Binds of a prepared shape at sizes
// it has seen test emptiness only. A Prepared is safe for concurrent
// Binds.
type Prepared struct {
	prog  *prog.Program  // the program prepared, for the shape check in Bind
	sch   *prog.Schedule // its original schedule
	opt   Options
	cands []*candidate
}

// candidate is one same-array access pair, named by statement IDs and
// access indices so that Bind can attach it to any program of the shape.
type candidate struct {
	src, tgt       int
	srcAcc, tgtAcc int
	space          PairSpace // over the prepared program's statements
	kind           Kind
	raw            *polyhedra.Set // the extent under the original schedule
	// nwib is raw without the pairs a write separates, computed once by
	// Prepared.noWriteInBetween. share is nwib reduced to one-one form,
	// computed once by Prepared.sharing for pairs other than R→W; reduced
	// reports whether that form was reached.
	nwibOnce, shareOnce sync.Once
	nwib, share         *polyhedra.Set
	reduced             bool
}

// Signature names which candidates of a Prepared became dependences,
// sharing opportunities or dropped opportunities at one program's
// parameter values. Two programs of one shape with equal signatures have
// the same Deps, Shares and Dropped lists, extent for extent, so any
// schedule search over one answers for the other.
type Signature string

// Candidate roles in a Signature byte.
const (
	sigDep     = 1 << iota // a dependence
	sigShare               // a sharing opportunity
	sigDropped             // an opportunity not reducible to one-one form
)

// Prepare starts the analysis of p: for every pair of accesses to the same
// array it builds the extent under the original schedule, reading no
// parameter value. It checks ctx between access pairs and returns the
// context's error once it is done.
func Prepare(ctx context.Context, p *prog.Program, opt Options) (*Prepared, error) {
	if len(p.Stmts) == 0 {
		return nil, fmt.Errorf("deps: program has no statements")
	}
	pr := &Prepared{prog: p, sch: p.OriginalSchedule(), opt: opt}
	for _, src := range p.Stmts {
		for srcAcc := range src.Accesses {
			for _, tgt := range p.Stmts {
				for tgtAcc := range tgt.Accesses {
					a, b := &src.Accesses[srcAcc], &tgt.Accesses[tgtAcc]
					if a.Array != b.Array {
						continue
					}
					if err := ctx.Err(); err != nil {
						return nil, fmt.Errorf("deps: analysis canceled: %w", err)
					}
					space, raw := buildExtent(p, pr.sch, src, srcAcc, tgt, tgtAcc)
					if len(raw.Ps) == 0 {
						continue // empty at every parameter value
					}
					cd := &candidate{src: src.ID, tgt: tgt.ID, srcAcc: srcAcc, tgtAcc: tgtAcc, space: space, raw: raw}
					cd.kind = pr.coAccess(cd, raw).Kind()
					pr.cands = append(pr.cands, cd)
				}
			}
		}
	}
	return pr, nil
}

// coAccess is the candidate over the prepared program, with extent ext.
func (pr *Prepared) coAccess(cd *candidate, ext *polyhedra.Set) *CoAccess {
	return &CoAccess{
		Prog: pr.prog, Src: pr.prog.Stmts[cd.src], Tgt: pr.prog.Stmts[cd.tgt],
		SrcAcc: cd.srcAcc, TgtAcc: cd.tgtAcc,
		Space: cd.space, Extent: ext,
	}
}

// noWriteInBetween returns cd's extent after no-write-in-between,
// computing it on first use.
func (pr *Prepared) noWriteInBetween(cd *candidate) *polyhedra.Set {
	cd.nwibOnce.Do(func() {
		c := pr.coAccess(cd, cd.raw)
		applyNoWriteInBetween(pr.prog, pr.sch, c)
		cd.nwib = c.Extent
	})
	return cd.nwib
}

// sharing returns cd's multiplicity-reduced sharing extent and whether the
// reduction reached one-one form, computing both on first use.
func (pr *Prepared) sharing(cd *candidate) (*polyhedra.Set, bool) {
	cd.shareOnce.Do(func() {
		s := pr.coAccess(cd, pr.noWriteInBetween(cd).Clone())
		cd.reduced = pr.opt.SkipMultiplicityReduction || ReduceMultiplicity(s)
		cd.share = s.Extent
	})
	return cd.share, cd.reduced
}

// Bind finishes the analysis for p, a program of the prepared shape: at
// p's parameter values it runs the analysis's three emptiness tests on
// each candidate (the extent, the extent after no-write-in-between, the
// reduced sharing extent), computing the extent each test reads if no
// earlier Bind has, and files the survivors as dependences and sharing
// opportunities of p's own statements. It returns the analysis and its
// Signature. It checks ctx between candidates and returns the context's
// error once it is done; the extents computed by then are kept.
func (pr *Prepared) Bind(ctx context.Context, p *prog.Program) (*Analysis, Signature, error) {
	if err := pr.sameShape(p); err != nil {
		return nil, "", err
	}
	an := &Analysis{Prog: p, Orig: p.OriginalSchedule()}
	var vals []int64
	if pr.opt.BindParams {
		vals = p.ParamValues()
	}
	sig := make([]byte, len(pr.cands))
	for i, cd := range pr.cands {
		if err := ctx.Err(); err != nil {
			return nil, "", fmt.Errorf("deps: analysis canceled: %w", err)
		}
		src, tgt := p.Stmts[cd.src], p.Stmts[cd.tgt]
		space := NewPairSpace(p, src, tgt)
		co := func(ext *polyhedra.Set) *CoAccess {
			return &CoAccess{
				Prog: p, Src: src, Tgt: tgt,
				SrcAcc: cd.srcAcc, TgtAcc: cd.tgtAcc,
				Space: space, Extent: ext.Clone(),
			}
		}
		if emptyAt(cd.raw, space, vals) {
			continue
		}
		nwib := pr.noWriteInBetween(cd)
		if emptyAt(nwib, space, vals) {
			continue
		}
		if cd.kind != RR { // R→W, W→R, W→W are dependences
			an.Deps = append(an.Deps, co(nwib))
			sig[i] |= sigDep
		}
		if cd.kind != RW { // W→R, W→W, R→R are sharing opportunities
			share, reduced := pr.sharing(cd)
			switch {
			case !reduced:
				an.Dropped = append(an.Dropped, co(share))
				sig[i] |= sigDropped
			case !emptyAt(share, space, vals):
				an.Shares = append(an.Shares, co(share))
				sig[i] |= sigShare
			}
		}
	}
	sortCo(an.Deps)
	sortCo(an.Shares)
	return an, Signature(sig), nil
}

// sameShape checks that p has the statements, loop nests, loop variables,
// parameters and access types of the prepared program, so that the candidates' statement IDs
// and access indices name the same accesses in p.
func (pr *Prepared) sameShape(p *prog.Program) error {
	q := pr.prog
	if len(p.Stmts) != len(q.Stmts) || p.NumParams() != q.NumParams() {
		return fmt.Errorf("deps: program %q is not of the prepared shape (%d statements, %d parameters; want %d, %d)",
			p.Name, len(p.Stmts), p.NumParams(), len(q.Stmts), q.NumParams())
	}
	for i, st := range p.Stmts {
		want := q.Stmts[i]
		if st.Nest != want.Nest || st.Pos != want.Pos || !slices.Equal(st.Vars, want.Vars) || len(st.Accesses) != len(want.Accesses) {
			return fmt.Errorf("deps: program %q statement %s is not of the prepared shape", p.Name, st.Name)
		}
		for a := range st.Accesses {
			if st.Accesses[a].Type != want.Accesses[a].Type {
				return fmt.Errorf("deps: program %q statement %s access %d is not of the prepared shape", p.Name, st.Name, a)
			}
		}
	}
	return nil
}

// emptyAt tests an extent for integer points, with the parameters bound to
// vals first unless vals is nil (the fully parametric analysis).
func emptyAt(ext *polyhedra.Set, space PairSpace, vals []int64) bool {
	if vals != nil {
		ext = ext.BindVars(space.Src.Ds()+space.Tgt.Ds(), vals)
	}
	return ext.IsEmptyInt(8)
}

func sortCo(cs []*CoAccess) {
	sort.Slice(cs, func(i, j int) bool { return cs[i].Key() < cs[j].Key() })
}

// FindShare locates a sharing opportunity by its display string (e.g.
// "s1WC→s2RC"); useful in tests and experiment drivers.
func (an *Analysis) FindShare(display string) *CoAccess {
	for _, s := range an.Shares {
		if s.String() == display {
			return s
		}
	}
	return nil
}

// ShareStrings lists the sharing opportunities in display form.
func (an *Analysis) ShareStrings() []string {
	out := make([]string, len(an.Shares))
	for i, s := range an.Shares {
		out[i] = s.String()
	}
	return out
}

// DepStrings lists the dependences in display form.
func (an *Analysis) DepStrings() []string {
	out := make([]string, len(an.Deps))
	for i, d := range an.Deps {
		out[i] = d.String()
	}
	return out
}

// MaxConcretePairs bounds the instance pairs ConcretePairs enumerates for
// one co-access, counted over its whole extent: past it ConcretePairs fails
// rather than hold more pairs in memory. Block-level extents are small, so
// only a runaway binding reaches it.
const MaxConcretePairs = 10_000_000

// ConcretePairs enumerates the instance pairs of a co-access's extent under
// the program's parameter binding: each element is (srcInstance,
// tgtInstance). Block-level domains are small so enumeration is exact
// (DESIGN.md substitution S3); more than MaxConcretePairs pairs is an error.
//
// The pairs are computed once per CoAccess, on the first call, and every
// call returns the same slices, so callers must not modify them, and the
// Extent must not change once ConcretePairs has been called. It is safe
// for concurrent use: the plans of one analysis are lowered in parallel.
func (c *CoAccess) ConcretePairs() ([][2][]int64, error) {
	c.pairsOnce.Do(func() { c.pairs, c.pairsErr = c.enumeratePairs() })
	return c.pairs, c.pairsErr
}

func (c *CoAccess) enumeratePairs() ([][2][]int64, error) {
	ext := c.Extent.BindVars(c.Space.Src.Ds()+c.Space.Tgt.Ds(), c.Prog.ParamValues())
	pts, err := ext.Enumerate(MaxConcretePairs)
	if err != nil {
		return nil, err
	}
	sd := c.Src.Ds()
	out := make([][2][]int64, len(pts))
	for i, pt := range pts {
		out[i] = [2][]int64{pt[:sd], pt[sd : sd+c.Tgt.Ds()]}
	}
	return out, nil
}
