package sched

import (
	"context"
	"sort"
)

// GreedyOptions configures SearchGreedy.
type GreedyOptions struct {
	// Score maps a plan to a cost estimate (lower is better) used to order
	// candidates and to accept or reject greedy additions. It is typically
	// backed by lowering the plan and summing logical I/O bytes. A scoring
	// error disqualifies the candidate but does not abort the search.
	Score func(pl Plan) (float64, error)
	// MaxCalls caps FindSchedule invocations (0 = default 1000). Together
	// with ctx this bounds worst-case planning latency: the greedy pass
	// tests each of the n opportunities once, then at most n additions.
	MaxCalls int
}

// SearchGreedy is the budgeted fast-path alternative to Search: instead of
// the Apriori enumeration over the (potentially exponential) feasibility
// lattice, it scores each sharing opportunity in isolation, then greedily
// accretes them in ascending-cost order, keeping an addition only if the
// combined set remains schedulable and its score does not worsen. It runs
// O(n) FindSchedule calls rather than the full search's O(2^n) worst case.
//
// The returned slice always starts with the no-sharing baseline plan and
// ends with the best greedy combination found; intermediate accepted states
// are not returned. If ctx expires mid-way the plans found so far are
// returned with a nil error, so a wall-clock budget degrades plan quality
// instead of failing the query. If it expires before the baseline's search
// finishes, the baseline is the program's original schedule: it realizes
// no sharing, is legal by construction and has the searched baseline's
// I/O volumes, though not always its event order. An error is returned
// only when the baseline is infeasible with ctx still live.
func (s *Searcher) SearchGreedy(ctx context.Context, opt GreedyOptions) ([]Plan, error) {
	if opt.Score == nil {
		return nil, errf("greedy search requires a Score function")
	}
	maxCalls := opt.MaxCalls
	if maxCalls == 0 {
		maxCalls = 1000
	}
	startCalls := s.Stats.tested()
	expired := func() bool {
		return ctx.Err() != nil || s.Stats.tested()-startCalls >= maxCalls
	}

	basePlan, err := s.baseline(ctx)
	if err != nil {
		if ctx.Err() == nil {
			return nil, err
		}
		basePlan = Plan{Schedule: s.An.Orig}
	}
	plans := []Plan{basePlan}

	n := len(s.An.Shares)
	if n == 0 {
		return plans, nil
	}
	baseScore, err := opt.Score(basePlan)
	if err != nil {
		return plans, nil
	}

	// Level 1: score each feasible opportunity in isolation.
	type cand struct {
		idx   int
		plan  Plan
		score float64
	}
	var cands []cand
	for i := 0; i < n && !expired(); i++ {
		pl, ok := s.PlanFor(ctx, []int{i})
		if !ok {
			continue
		}
		sc, err := opt.Score(pl)
		if err != nil {
			continue
		}
		cands = append(cands, cand{idx: i, plan: pl, score: sc})
	}
	// Cost-ordered: cheapest single-opportunity plans first; index breaks
	// ties so the pass is deterministic.
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].score != cands[b].score {
			return cands[a].score < cands[b].score
		}
		return cands[a].idx < cands[b].idx
	})

	// Greedy accretion from one seed: try every other candidate in cost
	// order on top of the accepted set, keeping an addition when the
	// combination stays schedulable and its score does not worsen. Passes
	// repeat until a fixpoint, since an addition accepted late in a pass
	// can turn an earlier-rejected candidate profitable.
	accrete := func(seed cand) (Plan, float64) {
		cur, curScore := seed.plan, seed.score
		in := map[int]bool{seed.idx: true}
		for changed := true; changed && !expired(); {
			changed = false
			for _, c := range cands {
				if expired() {
					break
				}
				if in[c.idx] {
					continue
				}
				q := append(append([]int(nil), cur.Shares...), c.idx)
				sort.Ints(q)
				pl, ok := s.PlanFor(ctx, q)
				if !ok {
					continue
				}
				sc, err := opt.Score(pl)
				if err != nil || sc > curScore {
					continue
				}
				cur, curScore = pl, sc
				in[c.idx] = true
				changed = true
			}
		}
		return cur, curScore
	}

	// A chain grown from the globally cheapest single opportunity can be
	// myopic — its schedule direction may be incompatible with a cheaper
	// family of opportunities — so grow one chain per top seed and keep
	// the best. Seeds that already score worse than the baseline cannot
	// start a chain that beats it and are skipped.
	const maxSeeds = 3
	var best *Plan
	bestScore := baseScore
	for i := 0; i < len(cands) && i < maxSeeds && !expired(); i++ {
		if cands[i].score > baseScore {
			break
		}
		pl, sc := accrete(cands[i])
		if sc <= bestScore {
			kept := pl
			best, bestScore = &kept, sc
		}
	}
	if best != nil {
		plans = append(plans, *best)
	}
	return plans, nil
}
