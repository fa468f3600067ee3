// Package core is RIOTShare's optimizer end to end (Figure 2), as one
// pipeline: sharing-opportunity analysis, a search for legal plans, lowering
// of each to an executable timeline, costing, and the pick of the cheapest
// plan that fits the memory cap. Only the search varies: the Apriori-style
// enumeration (Optimize), named combinations (OptimizeSubsets) or budgeted
// greedy accretion (OptimizeGreedy). This is the paper's primary
// contribution assembled from the substrate packages.
package core

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"riotshare/internal/codegen"
	"riotshare/internal/cost"
	"riotshare/internal/deps"
	"riotshare/internal/disk"
	"riotshare/internal/prog"
	"riotshare/internal/sched"
)

// Options configures optimization.
type Options struct {
	// MemCapBytes is the explicit memory cap (§4.2); 0 means unlimited.
	MemCapBytes int64
	// Model converts I/O volumes to time; zero value uses the paper's rates.
	Model disk.Model
	// BindParams makes the analysis drop opportunities that are empty for
	// the program's bound parameter values (the paper's per-configuration
	// analysis, e.g. n3=1 removing s2RC→s2RC).
	BindParams bool
	// MaxCalls bounds the Apriori search (0 = default).
	MaxCalls int
	// NoPruning disables the Apriori property (ablation).
	NoPruning bool
	// SkipMultiplicityReduction disables Remark A.1 (ablation).
	SkipMultiplicityReduction bool
}

// EvaluatedPlan is one legal plan with its cost.
type EvaluatedPlan struct {
	Index    int
	Plan     sched.Plan
	Timeline *codegen.Timeline
	Cost     cost.Cost
	// Label lists the realized sharing opportunities.
	Label string
}

// Result is the optimizer output.
type Result struct {
	Analysis *deps.Analysis
	Searcher *sched.Searcher
	// Plans holds every legal plan, sorted by I/O time ascending.
	Plans []EvaluatedPlan
	// Best is the cheapest plan fitting the memory cap (nil if none fits).
	Best *EvaluatedPlan
	// OptimizeTime is the wall-clock optimization time (§6's "A Note on
	// Optimization Time").
	OptimizeTime time.Duration
	// SearchStats reports search effort.
	SearchStats sched.Stats
}

// Optimize runs the pipeline with the full Apriori search on a program whose
// parameters are bound. It stays beside OptimizeCtx because the paper-figure
// code (internal/bench, internal/baseline), cmd/riotshare and the examples
// call it.
func Optimize(p *prog.Program, opt Options) (*Result, error) {
	return OptimizeCtx(context.Background(), p, opt) //riotvet:allow ctxflow — compatibility wrapper; cancelable callers use OptimizeCtx
}

// OptimizeCtx is Optimize with cancellation: canceling ctx aborts the
// enumeration, or the lowering of its plans, with the context's error, so
// shutdown and deadlines can interrupt a multi-minute full search.
func OptimizeCtx(ctx context.Context, p *prog.Program, opt Options) (*Result, error) {
	return optimize(ctx, p, opt, apriori)
}

// OptimizeSubsets evaluates only the given sharing-opportunity
// combinations (each a list of display names like "s1WC→s2RC"), skipping
// the Apriori enumeration. The empty combination (baseline) is always
// included. Used by the selected-plan experiments (Figures 4(b), 5(b),
// 6(b)) and anywhere the caller already knows the plans of interest. It
// stays beside OptimizeSubsetsCtx because those experiments in
// internal/bench, cmd/riotshare and the linreg example call it.
//
//riotvet:allow ctxflow — compatibility wrapper; cancelable callers use OptimizeSubsetsCtx
func OptimizeSubsets(p *prog.Program, opt Options, subsets [][]string) (*Result, error) {
	return OptimizeSubsetsCtx(context.Background(), p, opt, subsets) //riotvet:allow ctxflow — compatibility wrapper; see OptimizeSubsetsCtx
}

// OptimizeSubsetsCtx is OptimizeSubsets with cancellation plumbed through
// each FindSchedule call and the lowering.
func OptimizeSubsetsCtx(ctx context.Context, p *prog.Program, opt Options, subsets [][]string) (*Result, error) {
	return optimize(ctx, p, opt, named(subsets))
}

// OptimizeGreedy is the budgeted fast-path optimizer behind the serving
// tier-2 planner: instead of the Apriori enumeration it runs
// sched.SearchGreedy, scoring candidates by logical I/O bytes (lowering and
// costing each tested combination). Canceling ctx mid-search degrades plan
// quality — the best combination found so far is kept — rather than failing;
// an error is returned only when analysis fails or not even the no-sharing
// baseline could be planned before cancellation. The Result has the same
// shape as Optimize's (Plans sorted by I/O time, Best per MemCapBytes) but
// typically holds just the baseline and the greedy winner.
func OptimizeGreedy(ctx context.Context, p *prog.Program, opt Options) (*Result, error) {
	return optimize(ctx, p, opt, greedy)
}

// A strategy is the one step of the pipeline that varies: which legal plans
// to produce. What it evaluates through ev the plan table reuses.
type strategy func(ctx context.Context, s *sched.Searcher, ev *evaluator, opt Options) ([]sched.Plan, error)

// optimize is the optimizer pipeline of Figure 2, the only one: analysis
// (§5.1), plan search by the given strategy (§5.3), lowering and costing of
// every plan found (§5.4), ranking by I/O time, the pick under the cap.
func optimize(ctx context.Context, p *prog.Program, opt Options, search strategy) (*Result, error) {
	start := time.Now()
	model := opt.Model
	if model.ReadBytesPerSec == 0 {
		model = disk.PaperModel()
	}
	an, err := deps.Analyze(p, deps.Options{
		BindParams:                opt.BindParams,
		SkipMultiplicityReduction: opt.SkipMultiplicityReduction,
	})
	if err != nil {
		return nil, fmt.Errorf("core: analysis: %w", err)
	}
	searcher := sched.NewSearcher(an)
	ev := &evaluator{an: an, model: model, memo: make(map[string]EvaluatedPlan)}
	plans, err := search(ctx, searcher, ev, opt)
	if err != nil {
		return nil, err
	}
	res := &Result{Analysis: an, Searcher: searcher}
	if res.Plans, err = ev.all(ctx, plans); err != nil {
		return nil, err
	}
	sort.SliceStable(res.Plans, func(i, j int) bool {
		return res.Plans[i].Cost.IOTimeSec < res.Plans[j].Cost.IOTimeSec
	})
	for i := range res.Plans {
		res.Plans[i].Index = i
	}
	res.Best = res.BestUnder(opt.MemCapBytes)
	res.SearchStats = searcher.Stats
	res.OptimizeTime = time.Since(start)
	return res, nil
}

// apriori is the full search (Algorithm 2): every feasible combination.
func apriori(ctx context.Context, s *sched.Searcher, _ *evaluator, opt Options) ([]sched.Plan, error) {
	plans, err := s.Search(ctx, sched.SearchOptions{MaxCalls: opt.MaxCalls, NoPruning: opt.NoPruning})
	if err != nil {
		return nil, fmt.Errorf("core: search: %w", err)
	}
	return plans, nil
}

// greedy is the budgeted accretion: the baseline and the best combination
// sched.SearchGreedy reaches, candidates scored by the logical I/O bytes of
// their lowered plan.
func greedy(ctx context.Context, s *sched.Searcher, ev *evaluator, opt Options) ([]sched.Plan, error) {
	score := func(pl sched.Plan) (float64, error) {
		e, err := ev.eval(ctx, pl)
		return float64(e.Cost.LogicalIOBytes()), err
	}
	plans, err := s.SearchGreedy(ctx, sched.GreedyOptions{Score: score, MaxCalls: opt.MaxCalls})
	if err != nil {
		return nil, fmt.Errorf("core: greedy search: %w", err)
	}
	return plans, nil
}

// named is the restricted search: the baseline plus exactly the given
// combinations of sharing-opportunity display names, each of which must
// exist and be feasible.
func named(subsets [][]string) strategy {
	return func(ctx context.Context, s *sched.Searcher, _ *evaluator, _ Options) ([]sched.Plan, error) {
		index := make(map[string]int, len(s.An.Shares))
		for i, c := range s.An.Shares {
			index[c.String()] = i
		}
		plans := make([]sched.Plan, 0, 1+len(subsets))
		for _, names := range append([][]string{{}}, subsets...) {
			var shares []int
			for _, n := range names {
				i, ok := index[n]
				if !ok {
					return nil, fmt.Errorf("core: unknown sharing opportunity in %v (have %v)", names, s.An.ShareStrings())
				}
				shares = append(shares, i)
			}
			pl, ok := s.PlanFor(ctx, shares)
			if !ok {
				if err := ctx.Err(); err != nil {
					return nil, fmt.Errorf("core: search canceled: %w", err)
				}
				return nil, fmt.Errorf("core: combination %v is infeasible", names)
			}
			plans = append(plans, pl)
		}
		return plans, nil
	}
}

// evaluator lowers and costs plans for one optimize call, memoized by
// sharing set so the plan table reuses what greedy scoring already did.
type evaluator struct {
	an    *deps.Analysis
	model disk.Model
	mu    sync.Mutex
	memo  map[string]EvaluatedPlan // by Plan.Label; guarded by mu
}

// eval lowers and costs one plan unless the memo has it. Once ctx is
// canceled nothing more is lowered.
func (e *evaluator) eval(ctx context.Context, pl sched.Plan) (EvaluatedPlan, error) {
	label := pl.Label(e.an)
	e.mu.Lock()
	ev, ok := e.memo[label]
	e.mu.Unlock()
	if ok {
		return ev, nil
	}
	if err := ctx.Err(); err != nil {
		return ev, fmt.Errorf("core: search canceled: %w", err)
	}
	tl, err := codegen.Lower(e.an, pl)
	if err != nil {
		return ev, fmt.Errorf("core: lowering plan %s: %w", label, err)
	}
	ev = EvaluatedPlan{Plan: pl, Timeline: tl, Cost: cost.Evaluate(tl, e.model), Label: label}
	e.mu.Lock()
	e.memo[label] = ev
	e.mu.Unlock()
	return ev, nil
}

// all evaluates every plan, in order, on GOMAXPROCS workers: plans are
// independent, and lowering and costing them dominates optimization time
// when the feasible space is large (the ~16k linear-regression plans).
func (e *evaluator) all(ctx context.Context, plans []sched.Plan) ([]EvaluatedPlan, error) {
	out := make([]EvaluatedPlan, len(plans))
	errs := make([]error, len(plans))
	var next atomic.Int64
	work := func() {
		for i := next.Add(1) - 1; i < int64(len(plans)); i = next.Add(1) - 1 {
			out[i], errs[i] = e.eval(ctx, plans[i])
		}
	}
	var wg sync.WaitGroup
	if len(plans) > 2 { // one or two plans (the greedy result) are not worth a pool
		for w := 1; w < runtime.GOMAXPROCS(0) && w < len(plans); w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				work()
			}()
		}
	}
	work()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// BestUnder returns the cheapest plan whose peak memory fits capBytes
// (0 = unlimited), or nil if none fits.
func (r *Result) BestUnder(capBytes int64) *EvaluatedPlan {
	for i := range r.Plans {
		if capBytes == 0 || r.Plans[i].Cost.PeakMemoryBytes <= capBytes {
			return &r.Plans[i]
		}
	}
	return nil
}

// Baseline returns the plan realizing no sharing opportunities (the
// original program's cost; Plan 0 in the paper's figures).
func (r *Result) Baseline() *EvaluatedPlan { return r.PlanBySharing() }

// PlanBySharing finds a plan realizing exactly the named opportunities.
func (r *Result) PlanBySharing(names ...string) *EvaluatedPlan {
	want := make(map[string]bool, len(names))
	for _, n := range names {
		want[n] = true
	}
	for i := range r.Plans {
		pl := &r.Plans[i]
		if len(pl.Plan.Shares) != len(names) {
			continue
		}
		all := true
		for _, idx := range pl.Plan.Shares {
			if !want[r.Analysis.Shares[idx].String()] {
				all = false
				break
			}
		}
		if all {
			return pl
		}
	}
	return nil
}

// BlockSizeChoice is one evaluated (block shape, plan) combination from the
// joint optimizer.
type BlockSizeChoice struct {
	Scale  float64 // row-scaling factor applied to the base block shape
	Result *Result
	Best   *EvaluatedPlan
}

// OptimizeBlockSizeCtx implements the future-work extension sketched in §7
// (and the ♣ experiment of §6.1): it co-optimizes the array block size with
// I/O sharing by sweeping scaling factors over a program-template builder
// and returning the evaluated choices, best first. build must return the
// program for a given scale. Each per-scale optimization runs under ctx, so
// a deadline or shutdown can interrupt the sweep between (or inside) full
// searches.
func OptimizeBlockSizeCtx(ctx context.Context, build func(scale float64) *prog.Program, scales []float64, opt Options) ([]BlockSizeChoice, error) {
	var out []BlockSizeChoice
	for _, s := range scales {
		r, err := OptimizeCtx(ctx, build(s), opt)
		if err != nil {
			return nil, fmt.Errorf("core: block-size scale %.2f: %w", s, err)
		}
		if r.Best == nil {
			continue // no plan fits the cap at this block size
		}
		out = append(out, BlockSizeChoice{Scale: s, Result: r, Best: r.Best})
	}
	sort.SliceStable(out, func(i, j int) bool {
		return out[i].Best.Cost.IOTimeSec < out[j].Best.Cost.IOTimeSec
	})
	return out, nil
}
