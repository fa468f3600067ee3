// Package core is RIOTShare's optimizer end to end (Figure 2), as one
// pipeline: sharing-opportunity analysis, a search for legal plans, lowering
// of each to an executable timeline, costing, and the pick of the cheapest
// plan that fits the memory cap. Only the search varies: the Apriori-style
// enumeration (Optimize, and Shape.Optimize, the search the server runs on
// every plan-cache miss, under its plan budget as a deadline), named
// combinations (OptimizeSubsets) or greedy accretion (OptimizeGreedy,
// kept to compare plan quality against). This is the paper's primary
// contribution assembled from the substrate packages.
package core

import (
	"cmp"
	"context"
	"fmt"
	"runtime"
	"slices"
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
	// MaxCalls caps the sharing sets the search tests, the no-sharing
	// baseline included: the Apriori search's (0 = default 100000) and
	// greedy accretion's (0 = default 1000). A search that reaches it
	// ends with the plans found so far, as one its deadline ends does.
	MaxCalls int
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

// OptimizeCtx is Optimize with cancellation: canceling ctx ends the
// enumeration, and the lowering of its plans then fails with the
// context's error, so shutdown and deadlines can interrupt a multi-minute
// full search. (Shape.Optimize instead serves the plans found.)
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

// OptimizeGreedy is the budgeted greedy optimizer, kept beside the served
// search to measure what plan quality greedy accretion gives up: instead
// of the Apriori enumeration it runs
// sched.SearchGreedy, scoring candidates by logical I/O bytes (lowering and
// costing each tested combination). ctx bounds the analysis and the
// search, not their answer: canceling it mid-search keeps the best
// combination found so far, and canceling it before the no-sharing
// baseline is planned, analysis included, serves the program's original
// schedule as the baseline (OriginalPlan when the analysis was cut off).
// The plans found are lowered and costed even after ctx is done, so a
// deadline returns a plan table rather than an error; an error means
// analysis failed with ctx live or the program has no legal schedule. The
// Result has the same shape as Optimize's (Plans sorted by I/O time, Best
// per MemCapBytes) but holds just the baseline and the greedy winner.
func OptimizeGreedy(ctx context.Context, p *prog.Program, opt Options) (*Result, error) {
	start := time.Now()
	sh, err := PrepareShape(ctx, p, opt)
	if err != nil {
		if ctx.Err() == nil {
			return nil, err
		}
		return originalPlan(ctx, start, p, opt)
	}
	return sh.optimize(ctx, start, p, opt, greedy)
}

// OriginalPlan is the plan table of a program left unanalyzed: its
// original schedule alone, which realizes no sharing and is legal by
// construction, lowered and costed whatever ctx says. OptimizeGreedy and
// Shape.Optimize serve it when ctx ends before the analysis does, and so
// does a caller whose PrepareShape a plan budget cut off.
func OriginalPlan(ctx context.Context, p *prog.Program, opt Options) (*Result, error) {
	return originalPlan(ctx, time.Now(), p, opt)
}

func originalPlan(ctx context.Context, start time.Time, p *prog.Program, opt Options) (*Result, error) {
	an := &deps.Analysis{Prog: p, Orig: p.OriginalSchedule()}
	return run(context.WithoutCancel(ctx), start, sched.NewSearcher(an), opt, original)
}

// Shape is the half of planning that depends only on a program's shape:
// its statements, loop nests, domains and accesses, but not its parameter
// values, block sizes or array names. It holds the prepared analysis
// (deps.Prepare) and, per analysis signature, the memo of schedule-search
// answers (sched.Memo). Shape.Optimize optimizes every program of the
// shape from it by binding the analysis at the program's own sizes,
// searching with the memo of the signature that binding yields, and
// lowering and costing the plans found at those sizes, so a search that
// completes gives the plan table the package's Optimize computes from
// scratch. Shape.Lower lowers one plan of such a table again. A Shape is
// safe for concurrent use.
type Shape struct {
	prep  *deps.Prepared
	mu    sync.Mutex
	memos map[deps.Signature]*sched.Memo // guarded by mu
}

// PrepareShape starts the analysis of p under ctx (deps.Prepare);
// canceling ctx stops it between access pairs with the context's error.
// The analysis options (BindParams, SkipMultiplicityReduction) of opt hold
// for every program later optimized from the Shape.
func PrepareShape(ctx context.Context, p *prog.Program, opt Options) (*Shape, error) {
	prep, err := deps.Prepare(ctx, p, deps.Options{
		BindParams:                opt.BindParams,
		SkipMultiplicityReduction: opt.SkipMultiplicityReduction,
	})
	if err != nil {
		return nil, fmt.Errorf("core: analysis: %w", err)
	}
	return &Shape{prep: prep, memos: make(map[deps.Signature]*sched.Memo)}, nil
}

// Optimize is the server's search for a program of the shape: the
// package's Optimize, except that ctx bounds the analysis and the search,
// not their answer. When ctx ends the search, or Options.MaxCalls does,
// the plans found so far are lowered and costed anyway, so a deadline
// returns a plan table rather than an error; when ctx ends before the
// analysis is bound at p's sizes, or before the baseline is planned, it
// serves the original schedule (OriginalPlan). An error means the
// binding failed with ctx live or the program has no legal schedule.
func (sh *Shape) Optimize(ctx context.Context, p *prog.Program, opt Options) (*Result, error) {
	return sh.optimize(ctx, time.Now(), p, opt, served)
}

// optimize optimizes p, a program of the shape, by the given strategy,
// OptimizeTime counting from start.
func (sh *Shape) optimize(ctx context.Context, start time.Time, p *prog.Program, opt Options, search strategy) (*Result, error) {
	s, err := sh.searcher(ctx, p)
	if err != nil {
		if ctx.Err() == nil {
			return nil, err
		}
		return originalPlan(ctx, start, p, opt)
	}
	return run(ctx, start, s, opt, search)
}

// Lower lowers one plan of a table Optimize computed for p, at p's sizes,
// under ctx: the plan's sharing set indexes the analysis that binding the
// shape at p's sizes gives, which is the one Optimize searched.
func (sh *Shape) Lower(ctx context.Context, p *prog.Program, pl sched.Plan) (*codegen.Timeline, error) {
	an, _, err := sh.prep.Bind(ctx, p)
	if err != nil {
		return nil, fmt.Errorf("core: analysis: %w", err)
	}
	tl, err := codegen.Lower(an, pl)
	if err != nil {
		return nil, fmt.Errorf("core: lowering plan %s: %w", pl.Label(an), err)
	}
	return tl, nil
}

// searcher binds the prepared analysis at p's sizes and returns a
// Searcher over it that shares the memo of the binding's signature.
func (sh *Shape) searcher(ctx context.Context, p *prog.Program) (*sched.Searcher, error) {
	an, sig, err := sh.prep.Bind(ctx, p)
	if err != nil {
		return nil, fmt.Errorf("core: analysis: %w", err)
	}
	s := sched.NewSearcher(an)
	sh.mu.Lock()
	if m := sh.memos[sig]; m != nil {
		s.Memo = m
	} else {
		sh.memos[sig] = s.Memo
	}
	sh.mu.Unlock()
	return s, nil
}

// A strategy is the one step of the pipeline that varies: which legal plans
// to produce. What it evaluates through ev the plan table reuses.
type strategy func(ctx context.Context, s *sched.Searcher, ev *evaluator, opt Options) ([]sched.Plan, error)

// optimize is the optimizer pipeline of Figure 2, the only one: analysis
// (§5.1), plan search by the given strategy (§5.3), lowering and costing of
// every plan found (§5.4), ranking by I/O time, the pick under the cap.
func optimize(ctx context.Context, p *prog.Program, opt Options, search strategy) (*Result, error) {
	start := time.Now()
	sh, err := PrepareShape(ctx, p, opt)
	if err != nil {
		return nil, err
	}
	s, err := sh.searcher(ctx, p)
	if err != nil {
		return nil, err
	}
	return run(ctx, start, s, opt, search)
}

// run is the pipeline after the analysis: the search, then lowering,
// costing, ranking and the pick.
func run(ctx context.Context, start time.Time, searcher *sched.Searcher, opt Options, search strategy) (*Result, error) {
	model := opt.Model
	if model.ReadBytesPerSec == 0 {
		model = disk.PaperModel()
	}
	an := searcher.An
	ev := &evaluator{an: an, model: model, memo: make(map[string]EvaluatedPlan)}
	plans, err := search(ctx, searcher, ev, opt)
	if err != nil {
		return nil, err
	}
	res := &Result{Analysis: an, Searcher: searcher}
	if res.Plans, err = ev.all(ctx, plans); err != nil {
		return nil, err
	}
	slices.SortFunc(res.Plans, func(a, b EvaluatedPlan) int {
		return cmp.Or(cmp.Compare(a.Cost.IOTimeSec, b.Cost.IOTimeSec), compareShares(a.Plan.Shares, b.Plan.Shares))
	})
	for i := range res.Plans {
		res.Plans[i].Index = i
	}
	res.Best = res.BestUnder(opt.MemCapBytes)
	res.SearchStats = searcher.Stats
	res.OptimizeTime = time.Since(start)
	return res, nil
}

// compareShares orders plans of equal I/O time by their sharing sets,
// smaller sets first and then lexicographically, which is the order the
// level-by-level Apriori enumeration finds them in: the table and its
// pick do not depend on the order the search walks.
func compareShares(a, b []int) int {
	return cmp.Or(cmp.Compare(len(a), len(b)), slices.Compare(a, b))
}

// apriori is the full search (Algorithm 2): every feasible combination,
// opportunities added in the order of their one-opportunity plans' I/O
// time.
func apriori(ctx context.Context, s *sched.Searcher, ev *evaluator, opt Options) ([]sched.Plan, error) {
	rank := func(pl sched.Plan) (float64, error) {
		e, err := ev.eval(ctx, pl)
		return e.Cost.IOTimeSec, err
	}
	plans, err := s.Search(ctx, sched.SearchOptions{MaxCalls: opt.MaxCalls, Rank: rank})
	if err != nil {
		return nil, fmt.Errorf("core: search: %w", err)
	}
	return plans, nil
}

// served is apriori as the server runs it: ctx ends the search, not its
// answer, so the plans found are lowered and costed even once ctx is
// done, and the memo holds them when run evaluates the table.
func served(ctx context.Context, s *sched.Searcher, ev *evaluator, opt Options) ([]sched.Plan, error) {
	plans, err := apriori(ctx, s, ev, opt)
	if err != nil {
		return nil, err
	}
	if _, err := ev.all(context.WithoutCancel(ctx), plans); err != nil {
		return nil, err
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
	// The budget ends the search, not its answer: the (at most two) plans
	// found are lowered and costed even once ctx is done, so the memo holds
	// them when optimize evaluates the table.
	for _, pl := range plans {
		if _, err := ev.eval(context.WithoutCancel(ctx), pl); err != nil {
			return nil, err
		}
	}
	return plans, nil
}

// original is the strategy of a program left unanalyzed: its original
// schedule alone (see OriginalPlan).
func original(_ context.Context, s *sched.Searcher, _ *evaluator, _ Options) ([]sched.Plan, error) {
	return []sched.Plan{{Schedule: s.An.Orig}}, nil
}

// named is the restricted search: the baseline plus exactly the given
// combinations of sharing-opportunity display names, each of which must
// exist, name one opportunity and be feasible.
func named(subsets [][]string) strategy {
	return func(ctx context.Context, s *sched.Searcher, _ *evaluator, _ Options) ([]sched.Plan, error) {
		index := make(map[string][]int, len(s.An.Shares))
		for i, c := range s.An.Shares {
			index[c.String()] = append(index[c.String()], i)
		}
		plans := make([]sched.Plan, 0, 1+len(subsets))
		for _, names := range append([][]string{{}}, subsets...) {
			var shares []int
			for _, n := range names {
				is := index[n]
				switch {
				case len(is) == 0:
					return nil, fmt.Errorf("core: unknown sharing opportunity in %v (have %v)", names, s.An.ShareStrings())
				case len(is) > 1:
					return nil, fmt.Errorf("core: sharing opportunity name %s is ambiguous: opportunities %v all have it", n, is)
				}
				shares = append(shares, is[0])
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
	// memo is keyed by the plan's sharing set (Plan.Shares), not its
	// Label: two accesses of one statement to one array with the same
	// type (a sliding window's two reads) give two sharing opportunities
	// one display name, so distinct plans can share a label.
	memo map[string]EvaluatedPlan // guarded by mu
}

// eval lowers and costs one plan unless the memo has it. Once ctx is
// canceled nothing more is lowered.
func (e *evaluator) eval(ctx context.Context, pl sched.Plan) (EvaluatedPlan, error) {
	key, label := fmt.Sprint(pl.Shares), pl.Label(e.an)
	e.mu.Lock()
	ev, ok := e.memo[key]
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
	e.memo[key] = ev
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

// PlanBySharing finds a plan realizing exactly the named opportunities. It
// returns nil if there is none, or if a name is ambiguous: a statement
// making two accesses of one type to one array (a sliding window's two
// reads) can give two opportunities one display name.
func (r *Result) PlanBySharing(names ...string) *EvaluatedPlan {
	want := make(map[string]bool, len(names))
	for _, n := range names {
		want[n] = true
	}
	seen := make(map[string]bool, len(r.Analysis.Shares))
	for _, c := range r.Analysis.Shares {
		n := c.String()
		if want[n] && seen[n] {
			return nil
		}
		seen[n] = true
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
