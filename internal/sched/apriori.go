package sched

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"riotshare/internal/deps"
	"riotshare/internal/prog"
)

// Plan is a legal schedule paired with the set of sharing opportunities it
// was constructed to realize (the subset Q of Algorithm 2; code generation
// exploits exactly this set even if the schedule accidentally realizes
// more, §5.3).
type Plan struct {
	// Shares are indices into the analysis's Shares list.
	Shares   []int
	Schedule *prog.Schedule
}

// ShareSet returns the co-accesses this plan realizes.
func (pl *Plan) ShareSet(an *deps.Analysis) []*deps.CoAccess {
	out := make([]*deps.CoAccess, len(pl.Shares))
	for i, idx := range pl.Shares {
		out[i] = an.Shares[idx]
	}
	return out
}

// Label renders the plan's sharing set, e.g. "{s1WC→s2RC, s2WE→s2RE}".
func (pl *Plan) Label(an *deps.Analysis) string {
	if len(pl.Shares) == 0 {
		return "{}"
	}
	parts := make([]string, len(pl.Shares))
	for i, idx := range pl.Shares {
		parts[i] = an.Shares[idx].String()
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// SearchOptions bounds and orders the Apriori enumeration.
type SearchOptions struct {
	// MaxCalls caps the sharing sets the search tests, the no-sharing
	// baseline included (0 = default 100000). A memo hit counts as a
	// test.
	MaxCalls int
	// NoPruning disables the Apriori property and tests every subset, for
	// the ablation experiment.
	NoPruning bool
	// Rank scores a one-opportunity plan (lower is better; typically its
	// I/O time). The search adds opportunities in ascending score, index
	// breaking ties, so a search cut short has tried the cheapest
	// opportunities' combinations first. A scoring error ranks the
	// opportunity last; nil ranks by index.
	Rank func(pl Plan) (float64, error)
}

// Search is Algorithm 2: Apriori-style enumeration of sharing-opportunity
// combinations, each tested with FindSchedule, returning one plan per
// feasible combination, the empty one (the no-sharing baseline) first.
// It tests every single opportunity, ranks the feasible ones by
// opt.Rank, and then walks the lattice in colex order over that ranking:
// adding the opportunity e, it tests S∪{e} for every feasible S found
// so far, but only when every (S∖{x})∪{e} is feasible too. So every set
// is decided before its supersets, a set is tested only when all its
// subsets one smaller are feasible (Lemma 2), and a search that
// completes tests exactly the sets a level-by-level enumeration tests.
// The sets of one step that are ready together (those S∪{e} with S of
// one size, and the single opportunities) are tested on up to
// GOMAXPROCS goroutines.
//
// When ctx is done or opt.MaxCalls sets have been tested, the search
// stops and returns the plans found so far with a nil error. If that
// happens before the baseline is planned, the baseline is the program's
// original schedule: it realizes no sharing and is legal by construction.
// An error means the baseline is infeasible with ctx live.
func (s *Searcher) Search(ctx context.Context, opt SearchOptions) ([]Plan, error) {
	maxCalls := opt.MaxCalls
	if maxCalls == 0 {
		maxCalls = 100000
	}
	start := s.Stats.tested()
	left := func() int { return maxCalls - (s.Stats.tested() - start) }

	base, err := s.baseline(ctx)
	if err != nil {
		if ctx.Err() == nil {
			return nil, err
		}
		base = Plan{Schedule: s.An.Orig}
	}
	plans := []Plan{base}
	n := len(s.An.Shares)
	if opt.NoPruning {
		return s.searchNoPruning(ctx, plans, n, func() bool { return ctx.Err() != nil || left() <= 0 }), nil
	}

	// Every single opportunity, ranked.
	singles := make([][]int, n)
	for i := range singles {
		singles[i] = []int{i}
	}
	answers, stop := s.testAll(ctx, singles, left(), opt.Rank)
	type single struct {
		idx   int
		score float64
	}
	var ranked []single
	for i, a := range answers {
		if a.ok {
			plans = append(plans, a.pl)
			ranked = append(ranked, single{idx: i, score: a.score})
		}
	}
	if stop {
		return plans, nil
	}
	sort.SliceStable(ranked, func(a, b int) bool { return ranked[a].score < ranked[b].score })

	// The colex walk, over sets of ranks. bySize[k] lists the feasible
	// k-sets found so far; feasible holds them all.
	bySize := [][]rankSet{{newRankSet(len(ranked))}}
	feasible := map[string]bool{bySize[0][0].key(): true}
	add := func(set rankSet, size int) {
		if len(bySize) == size {
			bySize = append(bySize, nil)
		}
		bySize[size] = append(bySize[size], set)
		feasible[set.key()] = true
	}
	for e := range ranked {
		sizes := make([]int, len(bySize))
		for k := range bySize {
			sizes[k] = len(bySize[k])
		}
		add(bySize[0][0].with(e), 1) // {e} itself was tested above
		for k := 1; k < len(sizes); k++ {
			var cands []rankSet
			var sets [][]int
			for _, sub := range bySize[k][:sizes[k]] {
				cand := sub.with(e)
				if !cand.subsetsFeasible(e, feasible) {
					continue
				}
				cands = append(cands, cand)
				shares := make([]int, 0, k+1)
				cand.each(func(r int) { shares = append(shares, ranked[r].idx) })
				sort.Ints(shares)
				sets = append(sets, shares)
			}
			answers, stop := s.testAll(ctx, sets, left(), nil)
			for i, a := range answers {
				if a.ok {
					plans = append(plans, a.pl)
					add(cands[i], k+1)
				}
			}
			if stop {
				return plans, nil
			}
		}
	}
	return plans, nil
}

// answer is PlanFor's answer for one set, and its plan's score.
type answer struct {
	pl    Plan
	ok    bool
	score float64
}

// testAll answers PlanFor for the given sets, or for as many of the first
// ones as left allows, on up to GOMAXPROCS goroutines. rank, when set,
// scores each feasible set's plan as that set's score (a scoring error
// scores +Inf); without it a set's score is its position. stop reports
// that the search must end: left did not cover every set, or ctx is done.
func (s *Searcher) testAll(ctx context.Context, sets [][]int, left int, rank func(Plan) (float64, error)) (answers []answer, stop bool) {
	if len(sets) > left {
		sets, stop = sets[:max(left, 0)], true
	}
	answers = make([]answer, len(sets))
	var next atomic.Int64
	work := func() {
		for i := int(next.Add(1) - 1); i < len(sets); i = int(next.Add(1) - 1) {
			a := &answers[i]
			a.pl, a.ok = s.PlanFor(ctx, sets[i])
			a.score = float64(i)
			if a.ok && rank != nil {
				var err error
				if a.score, err = rank(a.pl); err != nil {
					a.score = math.Inf(1)
				}
			}
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < runtime.GOMAXPROCS(0) && w < len(sets); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	return answers, stop || ctx.Err() != nil
}

// searchNoPruning tests the full power set (ablation baseline) until over.
func (s *Searcher) searchNoPruning(ctx context.Context, plans []Plan, n int, over func() bool) []Plan {
	for mask := 1; mask < 1<<n && !over(); mask++ {
		var q []int
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				q = append(q, i)
			}
		}
		if pl, ok := s.PlanFor(ctx, q); ok {
			plans = append(plans, pl)
		}
	}
	return plans
}

// rankSet is a set of opportunity ranks, one bit each.
type rankSet []uint64

func newRankSet(n int) rankSet { return make(rankSet, (n+63)/64) }

func (rs rankSet) with(r int) rankSet {
	out := append(rankSet(nil), rs...)
	out[r/64] |= 1 << (r % 64)
	return out
}

// each calls f on every rank in the set, in ascending order.
func (rs rankSet) each(f func(r int)) {
	for i, w := range rs {
		for w != 0 {
			f(i*64 + bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
}

// key is the set as a map key.
func (rs rankSet) key() string {
	b := make([]byte, 0, 8*len(rs))
	for _, w := range rs {
		b = binary.LittleEndian.AppendUint64(b, w)
	}
	return string(b)
}

// subsetsFeasible reports whether every subset of rs one smaller that
// holds e is in feasible (the subset without e is feasible by
// construction).
func (rs rankSet) subsetsFeasible(e int, feasible map[string]bool) bool {
	sub := append(rankSet(nil), rs...)
	ok := true
	rs.each(func(x int) {
		if x == e || !ok {
			return
		}
		sub[x/64] &^= 1 << (x % 64)
		ok = feasible[sub.key()]
		sub[x/64] |= 1 << (x % 64)
	})
	return ok
}

// PlanFor tests one combination of sharing opportunities (indices into the
// analysis's Shares list): the plan realizing exactly that set, or ok=false
// when the set is infeasible or ctx was canceled mid-search (ctx.Err() tells
// the two apart). Every search strategy builds its plans here.
func (s *Searcher) PlanFor(ctx context.Context, shares []int) (Plan, bool) {
	pl := Plan{Shares: shares}
	// The order of the set is part of the key: FindSchedule classifies
	// the sharing opportunities in the order given.
	key := fmt.Sprint(shares)
	if a, hit := s.Memo.get(key); hit {
		s.mu.Lock()
		s.Stats.MemoHits++
		s.mu.Unlock()
		pl.Schedule = a.sch
		return pl, a.ok
	}
	sch, ok := s.FindSchedule(ctx, pl.ShareSet(s.An))
	pl.Schedule = sch
	if ok || ctx.Err() == nil {
		s.Memo.put(key, memoAnswer{sch: sch, ok: ok})
	}
	return pl, ok
}

// baseline plans the empty combination — the original program's order,
// which every search starts from — or explains why it cannot.
func (s *Searcher) baseline(ctx context.Context) (Plan, error) {
	base, ok := s.PlanFor(ctx, nil)
	if !ok {
		if err := ctx.Err(); err != nil {
			return base, fmt.Errorf("sched: search canceled: %w", err)
		}
		return base, errf("no legal schedule exists even without sharing (program %q)", s.Prog.Name)
	}
	return base, nil
}
