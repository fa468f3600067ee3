package sched

import (
	"context"
	"fmt"
	"sort"
	"strings"

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

// SearchOptions bounds the Apriori enumeration.
type SearchOptions struct {
	// MaxCalls caps FindSchedule invocations (0 = default 100000).
	MaxCalls int
	// NoPruning disables the Apriori property and tests every subset, for
	// the ablation experiment.
	NoPruning bool
	// MaxLevel, when nonzero, caps the size of sharing-opportunity
	// combinations considered — the paper's §6 suggestion for cutting
	// optimization time on large programs ("localizing optimization" /
	// terminating enumeration early). Plans realizing more than MaxLevel
	// opportunities are then not discovered.
	MaxLevel int
}

// Search is Algorithm 2: Apriori-style enumeration of sharing-opportunity
// combinations. A k-subset is considered only if all its (k-1)-subsets were
// feasible (Lemma 2); each candidate is tested with FindSchedule. It returns
// one plan per feasible combination, including the empty combination (the
// no-sharing baseline plan). Canceling ctx aborts the enumeration with the
// context's error, so shutdown and test deadlines can interrupt the
// potentially minutes-long full search.
func (s *Searcher) Search(ctx context.Context, opt SearchOptions) ([]Plan, error) {
	maxCalls := opt.MaxCalls
	if maxCalls == 0 {
		maxCalls = 100000
	}
	budget := func() error {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("sched: search canceled: %w", err)
		}
		if s.Stats.tested() > maxCalls {
			return errf("search exceeded %d FindSchedule calls", maxCalls)
		}
		return nil
	}

	base, err := s.baseline(ctx)
	if err != nil {
		return nil, err
	}
	plans := []Plan{base}

	n := len(s.An.Shares)
	if n == 0 {
		return plans, nil
	}

	if opt.NoPruning {
		return s.searchNoPruning(ctx, plans, n, budget)
	}

	// Levels k >= 1 (lines 2-9), each grown from the feasible sets of the
	// level below; level 0 is the baseline.
	maxLevel := n
	if opt.MaxLevel > 0 && opt.MaxLevel < n {
		maxLevel = opt.MaxLevel
	}
	feasible := map[string]bool{subsetKey(nil): true}
	level := [][]int{nil}
	for k := 1; len(level) > 0 && k <= maxLevel; k++ {
		var next [][]int
		for _, a := range level {
			first := 0
			if k > 1 {
				first = a[k-2] + 1
			}
			for b := first; b < n; b++ {
				cand := append(append([]int(nil), a...), b)
				// Apriori property: all (k-1)-subsets must be feasible.
				allFeasible := true
				for drop := 0; drop < len(cand); drop++ {
					sub := append(append([]int(nil), cand[:drop]...), cand[drop+1:]...)
					if !feasible[subsetKey(sub)] {
						allFeasible = false
						break
					}
				}
				if !allFeasible {
					continue
				}
				if err := budget(); err != nil {
					return nil, err
				}
				if pl, ok := s.PlanFor(ctx, cand); ok {
					next = append(next, cand)
					feasible[subsetKey(cand)] = true
					plans = append(plans, pl)
				}
			}
		}
		level = next
	}
	return plans, nil
}

// searchNoPruning tests the full power set (ablation baseline).
func (s *Searcher) searchNoPruning(ctx context.Context, plans []Plan, n int, budget func() error) ([]Plan, error) {
	for mask := 1; mask < 1<<n; mask++ {
		if err := budget(); err != nil {
			return nil, err
		}
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
	return plans, nil
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
		s.Stats.MemoHits++
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

func subsetKey(q []int) string {
	c := append([]int(nil), q...)
	sort.Ints(c)
	parts := make([]string, len(c))
	for i, v := range c {
		parts[i] = fmt.Sprint(v)
	}
	return strings.Join(parts, ",")
}
