package exec

import (
	"fmt"
	"os"
	"reflect"
	"testing"
	"time"

	"riotshare/internal/blas"
	"riotshare/internal/blockd"
	"riotshare/internal/buffer"
	"riotshare/internal/codegen"
	"riotshare/internal/core"
	"riotshare/internal/disk"
	"riotshare/internal/ops"
	"riotshare/internal/prog"
	"riotshare/internal/storage"
)

// useropProgram mirrors examples/userop: a sliding-window operator, a scan
// aggregate, and a nested-loop join over blocked vectors.
func useropProgram() *prog.Program {
	p := prog.New("userop", "n", "m")
	p.AddArray(&prog.Array{Name: "Src", BlockRows: 8, BlockCols: 4, GridRows: 10, GridCols: 1})
	p.AddArray(&prog.Array{Name: "Win", BlockRows: 8, BlockCols: 4, GridRows: 10, GridCols: 1, Transient: true})
	p.AddArray(&prog.Array{Name: "Rel", BlockRows: 8, BlockCols: 4, GridRows: 6, GridCols: 1})
	p.AddArray(&prog.Array{Name: "Agg", BlockRows: 1, BlockCols: 1, GridRows: 1, GridCols: 1})
	p.AddArray(&prog.Array{Name: "Join", BlockRows: 1, BlockCols: 1, GridRows: 1, GridCols: 1})
	p.NewNest()
	s1 := p.NewStatement("s1", "i")
	s1.Range("i", prog.C(0), prog.V("n"))
	s1.Access(prog.Read, "Src", prog.V("i"), prog.C(0))
	s1.Access(prog.Read, "Src", prog.V("i").AddK(1), prog.C(0))
	s1.Access(prog.Write, "Win", prog.V("i"), prog.C(0))
	s1.SetKernel("add")
	ops.Scan(p, "s2", "Win", "Agg", "n")
	ops.NLJoin(p, "s3", "Join", "Win", "Rel", "n", "m")
	p.Bind("n", 9).Bind("m", 6)
	return p
}

// outputArrays returns the persistent arrays the program writes.
func outputArrays(p *prog.Program) []string {
	var out []string
	seen := map[string]bool{}
	for _, st := range p.Stmts {
		w := st.WriteAccess()
		if w == nil || seen[w.Array] {
			continue
		}
		seen[w.Array] = true
		if arr := p.Arrays[w.Array]; arr != nil && !arr.Transient {
			out = append(out, w.Array)
		}
	}
	return out
}

// runConfig varies one execution of a plan in the property tests: the
// engine parallelism, the shard count of the block store (0/1 = the
// single-directory manager) with its replication factor, and whether block I/O goes through a sharing-aware buffer pool (with
// which capacity — a small poolCap forces eviction and dirty write-back
// churn mid-plan — and dead transient blocks discarded through
// Engine.OnBlockDead).
type runConfig struct {
	workers  int
	memCap   int64
	shards   int
	replicas int
	pool     bool
	poolCap  int64
}

// runPlan executes one plan on fresh storage and returns the result plus
// every persistent output array.
func runPlan(t *testing.T, p *prog.Program, pl *core.EvaluatedPlan, cfg runConfig) (Result, map[string]*blas.Matrix) {
	t.Helper()
	var m storage.Backend
	var err error
	if cfg.shards > 1 {
		m, err = storage.OpenSharded(storage.ShardDirs(t.TempDir(), cfg.shards),
			storage.ShardedOptions{Replicas: cfg.replicas})
	} else {
		m, err = storage.NewManager(t.TempDir(), storage.FormatDAF)
	}
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := m.CreateAll(p); err != nil {
		t.Fatal(err)
	}
	fillInputs(t, p, m, 42)
	return runPlanOn(t, p, pl, m, cfg)
}

// runPlanOn executes one plan on an already-created, already-filled backend
// — the hook the degraded-store variant uses to lose a shard between fill
// and execution.
func runPlanOn(t *testing.T, p *prog.Program, pl *core.EvaluatedPlan, m storage.Backend, cfg runConfig) (Result, map[string]*blas.Matrix) {
	t.Helper()
	var err error
	eng := &Engine{Store: m, Model: disk.PaperModel(), MemCapBytes: cfg.memCap}
	var pool *buffer.Pool
	if cfg.pool {
		pool = buffer.NewPool(m, cfg.poolCap)
		// Dead intermediates leave the pool unwritten; outputs must not
		// notice.
		eng.Pool, eng.OnBlockDead = pool, pool.DiscardBlock
	}
	r, err := eng.RunOptions(pl.Timeline, Options{Workers: cfg.workers})
	if err != nil {
		t.Fatalf("plan %s %+v: %v", pl.Label, cfg, err)
	}
	if pool != nil {
		if st := pool.Stats(); st.PinnedFrames != 0 {
			t.Fatalf("plan %s %+v: %d pool frames still pinned after the run", pl.Label, cfg, st.PinnedFrames)
		}
		if err := pool.Flush(); err != nil {
			t.Fatalf("plan %s %+v: flush: %v", pl.Label, cfg, err)
		}
	}
	outs := map[string]*blas.Matrix{}
	for _, name := range outputArrays(p) {
		outs[name] = readFull(t, p, m, name)
	}
	return r, outs
}

// comparable strips the fields that legitimately vary between runs
// (CPUTime and StageTimes are measured wall time inside kernels;
// prefetch counts depend on scheduling and worker count).
func comparable(r Result) Result {
	r.CPUTime = 0
	r.StageTimes = nil
	r.PrefetchIssued = 0
	r.PrefetchInline = 0
	return r
}

// assertIdentical checks the DAG schedule's central invariant: logical I/O
// accounting and numerics are byte-for-byte identical to the in-order
// schedule, for any worker count.
func assertIdentical(t *testing.T, label string, workers int, seq, par Result, seqOut, parOut map[string]*blas.Matrix) {
	t.Helper()
	if !reflect.DeepEqual(comparable(seq), comparable(par)) {
		t.Errorf("plan %s workers=%d: Result diverged\nseq: %+v\npar: %+v", label, workers, comparable(seq), comparable(par))
	}
	for name, want := range seqOut {
		got := parOut[name]
		if got == nil {
			t.Fatalf("plan %s workers=%d: output %s missing", label, workers, name)
		}
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("plan %s workers=%d: %s[%d] = %v, want %v (not bit-identical)",
					label, workers, name, i, got.Data[i], want.Data[i])
			}
		}
	}
}

// planSample bounds how many plans each program exercises: the baseline,
// the best, and a spread in between.
func planSample(res *core.Result, n int) []*core.EvaluatedPlan {
	if len(res.Plans) <= n {
		out := make([]*core.EvaluatedPlan, len(res.Plans))
		for i := range res.Plans {
			out[i] = &res.Plans[i]
		}
		return out
	}
	var out []*core.EvaluatedPlan
	step := len(res.Plans) / n
	for i := 0; i < len(res.Plans); i += step {
		out = append(out, &res.Plans[i])
	}
	if base := res.Baseline(); base != nil {
		out = append(out, base)
	}
	return out
}

// TestParallelMatchesSequential is the property test for the DAG
// schedule: across the example programs and a sample of their plans, a
// Workers=4 run — with or without a sharing-aware buffer pool — must
// produce the same Result (ReadBytes/WriteBytes/ReadReqs/WriteReqs/
// PeakMemoryBytes/SimulatedIOSec) and bit-identical output matrices as
// Workers=1.
func TestParallelMatchesSequential(t *testing.T) {
	cases := []struct {
		name     string
		prog     *prog.Program
		subsets  [][]string
		maxPlans int
	}{
		{name: "addmul", prog: addMulProgram(3, 4, 2), maxPlans: 10},
		{name: "twomm", prog: ops.TwoMM(ops.TwoMMConfig{
			N1: 3, N2: 4, N3: 3, N4: 4,
			ABlock: ops.Dims{Rows: 4, Cols: 4}, BBlock: ops.Dims{Rows: 4, Cols: 4},
			DBlock: ops.Dims{Rows: 4, Cols: 4},
		}), maxPlans: 8},
		{name: "linreg", prog: ops.LinReg(ops.LinRegConfig{
			N: 4, XBlock: ops.Dims{Rows: 12, Cols: 5}, YBlock: ops.Dims{Rows: 12, Cols: 3},
		}), subsets: [][]string{
			{"s1RX→s2RX", "s1WU→s3RU", "s2WV→s4RV", "s3WW→s4RW", "s5WYh→s6RYh", "s6WEv→s7REv"},
		}, maxPlans: 4},
		{name: "userop", prog: useropProgram(), maxPlans: 6},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			var res *core.Result
			var err error
			if tc.subsets != nil {
				res, err = core.OptimizeSubsets(tc.prog, core.Options{BindParams: true}, tc.subsets)
			} else {
				res, err = core.Optimize(tc.prog, core.Options{BindParams: true})
			}
			if err != nil {
				t.Fatal(err)
			}
			for _, pl := range planSample(res, tc.maxPlans) {
				seq, seqOut := runPlan(t, tc.prog, pl, runConfig{workers: 1})
				for _, workers := range []int{2, 4} {
					par, parOut := runPlan(t, tc.prog, pl, runConfig{workers: workers})
					assertIdentical(t, pl.Label, workers, seq, par, seqOut, parOut)
				}
				// Shards/replicas axes: striping the block store across
				// 2 or 4 shard directories — with or without 2-way
				// replication — must be invisible to execution: same
				// Result, bit-identical outputs, sequential and
				// parallel alike.
				for _, shards := range []int{2, 4} {
					for _, replicas := range []int{1, 2} {
						for _, workers := range []int{1, 4} {
							sh, shOut := runPlan(t, tc.prog, pl, runConfig{
								workers: workers, shards: shards, replicas: replicas,
							})
							label := fmt.Sprintf("%s+shards%d r%d", pl.Label, shards, replicas)
							assertIdentical(t, label, workers, seq, sh, seqOut, shOut)
						}
					}
				}
				// Degraded store: lose one shard dir mid-suite (after
				// the input fill) under 2-way replication — execution
				// must still be bit-identical, served by replica
				// fallbacks.
				{
					cfg := runConfig{workers: 4, shards: 2, replicas: 2}
					dirs := storage.ShardDirs(t.TempDir(), cfg.shards)
					sm, err := storage.OpenSharded(dirs,
						storage.ShardedOptions{Replicas: cfg.replicas})
					if err != nil {
						t.Fatal(err)
					}
					if err := sm.CreateAll(tc.prog); err != nil {
						t.Fatal(err)
					}
					fillInputs(t, tc.prog, sm, 42)
					if err := sm.DegradeShard(1); err != nil {
						t.Fatal(err)
					}
					// The directory is really gone: fallbacks must come
					// from shard 0's replicas, not surviving fds.
					if err := os.RemoveAll(dirs[1]); err != nil {
						t.Fatal(err)
					}
					deg, degOut := runPlanOn(t, tc.prog, pl, sm, cfg)
					assertIdentical(t, pl.Label+"+degraded", cfg.workers, seq, deg, seqOut, degOut)
					if sm.DegradedReads() == 0 {
						t.Errorf("plan %s: degraded run issued no replica-fallback reads", pl.Label)
					}
					sm.Close()
				}
				// Remote shards: the same store striped over in-process
				// riotblockd servers (2-way replicated) must be
				// execution-invisible too — same Result, bit-identical
				// outputs. Then kill one server and run again: the dead
				// shard degrades automatically and replica fallbacks
				// keep the run bit-identical.
				{
					cfg := runConfig{workers: 4, shards: 2, replicas: 2}
					servers := make([]*blockd.Server, cfg.shards)
					addrs := make([]string, cfg.shards)
					for i := range servers {
						srv, err := blockd.New(t.TempDir(), blockd.Options{})
						if err != nil {
							t.Fatal(err)
						}
						if err := srv.ListenAndServe("127.0.0.1:0"); err != nil {
							t.Fatal(err)
						}
						defer srv.Close()
						servers[i] = srv
						addrs[i] = srv.Addr()
					}
					sm, err := storage.OpenSharded(addrs, storage.ShardedOptions{
						Replicas: cfg.replicas,
						Remote:   storage.RemoteOptions{Retries: 1, RetryBackoff: 5 * time.Millisecond},
					})
					if err != nil {
						t.Fatal(err)
					}
					if err := sm.CreateAll(tc.prog); err != nil {
						t.Fatal(err)
					}
					fillInputs(t, tc.prog, sm, 42)
					rem, remOut := runPlanOn(t, tc.prog, pl, sm, cfg)
					assertIdentical(t, pl.Label+"+remote", cfg.workers, seq, rem, seqOut, remOut)

					servers[1].Close() // kill one riotblockd mid-suite
					kill, killOut := runPlanOn(t, tc.prog, pl, sm, cfg)
					assertIdentical(t, pl.Label+"+remote-kill", cfg.workers, seq, kill, seqOut, killOut)
					if got := sm.Degraded(); len(got) != 1 || got[0] != 1 {
						t.Errorf("plan %s: Degraded() = %v after killing server 1, want [1]", pl.Label, got)
					}
					if sm.DegradedReads() == 0 {
						t.Errorf("plan %s: remote kill run issued no replica-fallback reads", pl.Label)
					}
					sm.Close()
				}
				// Pooled runs (sequential and parallel, unlimited and
				// eviction-forcing capacities) must be
				// indistinguishable in Result and numerics too.
				for _, workers := range []int{1, 4} {
					for _, pcfg := range []struct {
						cap    int64
						shards int
					}{
						{0, 0},
						{4 << 10, 0},
						// The pool's keys carry array/coords only, so it
						// composes with a sharded store unchanged —
						// including mid-plan eviction write-back routed
						// to the right shard.
						{4 << 10, 2},
					} {
						pooled, pooledOut := runPlan(t, tc.prog, pl, runConfig{
							workers: workers, shards: pcfg.shards,
							pool: true, poolCap: pcfg.cap,
						})
						label := fmt.Sprintf("%s+pool-cap%d-shards%d", pl.Label, pcfg.cap, pcfg.shards)
						assertIdentical(t, label, workers, seq, pooled, seqOut, pooledOut)
					}
				}
			}
		})
	}
}

// The DAG schedule enforces the memory cap exactly like the in-order one: a
// cap below the plan's peak fails before any physical I/O, at the peak it
// runs — and the prefetch window must degrade gracefully to zero headroom.
func TestParallelMemoryCap(t *testing.T) {
	p := addMulProgram(2, 3, 1)
	res, err := core.Optimize(p, core.Options{BindParams: true})
	if err != nil {
		t.Fatal(err)
	}
	pl := &res.Plans[0]
	m, err := storage.NewManager(t.TempDir(), storage.FormatDAF)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := m.CreateAll(p); err != nil {
		t.Fatal(err)
	}
	fillInputs(t, p, m, 3)
	before := m.Stats()
	eng := &Engine{Store: m, Model: disk.PaperModel(), MemCapBytes: pl.Cost.PeakMemoryBytes - 1}
	if _, err := eng.RunOptions(pl.Timeline, Options{Workers: 4}); err == nil {
		t.Fatal("cap below the plan's peak must fail")
	}
	if after := m.Stats(); after != before {
		t.Fatalf("refused plan touched the store: %+v -> %+v", before, after)
	}
	eng.MemCapBytes = pl.Cost.PeakMemoryBytes
	if _, err := eng.RunOptions(pl.Timeline, Options{Workers: 4}); err != nil {
		t.Fatalf("cap at the plan's peak must pass: %v", err)
	}
}

// A corrupted timeline (holds dropped under FromMemory actions) must fail
// the buffered-block invariant under the DAG schedule too.
func TestParallelFromMemoryInvariant(t *testing.T) {
	p := addMulProgram(2, 2, 1)
	res, err := core.Optimize(p, core.Options{BindParams: true})
	if err != nil {
		t.Fatal(err)
	}
	var withShares *core.EvaluatedPlan
	for i := range res.Plans {
		if len(res.Plans[i].Plan.Shares) > 0 {
			withShares = &res.Plans[i]
			break
		}
	}
	if withShares == nil {
		t.Skip("no sharing plan found")
	}
	bad := *withShares.Timeline
	bad.Holds = nil
	m, err := storage.NewManager(t.TempDir(), storage.FormatDAF)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := m.CreateAll(p); err != nil {
		t.Fatal(err)
	}
	fillInputs(t, p, m, 1)
	eng := &Engine{Store: m, Model: disk.PaperModel()}
	if _, err := eng.RunOptions(&bad, Options{Workers: 4}); err == nil {
		t.Fatal("corrupted timeline should fail the buffered-block invariant")
	}
}

// Physical-counter cross-check for a run given no pool (RunOptions resolves
// the pass-through one over Engine.Store): for every plan of addmul and
// twomm, the block requests the store actually served equal the Result
// accountRun reported, which equals cost.Evaluate's independent prediction.
// The in-order schedule is request-exact; the DAG schedule writes exactly as
// many blocks and reads at most dagReadBound. It runs twice: with the
// prefetcher, and under a memory cap at the plan's peak, which leaves the
// window no slot, so every walk block is claimed inline by a consumer.
func TestPhysicalCountersMatchAccounting(t *testing.T) {
	progs := map[string]*prog.Program{
		"addmul": addMulProgram(3, 4, 2),
		"twomm": ops.TwoMM(ops.TwoMMConfig{
			N1: 3, N2: 4, N3: 3, N4: 4,
			ABlock: ops.Dims{Rows: 4, Cols: 4}, BBlock: ops.Dims{Rows: 4, Cols: 4},
			DBlock: ops.Dims{Rows: 4, Cols: 4},
		}),
	}
	for name, p := range progs {
		res, err := core.Optimize(p, core.Options{BindParams: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, pl := range res.Plans {
			for _, run := range []struct {
				workers int
				capped  bool
			}{{1, false}, {4, false}, {4, true}} {
				workers := run.workers
				m, err := storage.NewManager(t.TempDir(), storage.FormatDAF)
				if err != nil {
					t.Fatal(err)
				}
				if err := m.CreateAll(p); err != nil {
					t.Fatal(err)
				}
				fillInputs(t, p, m, 42)
				before := m.Stats()
				eng := &Engine{Store: m, Model: disk.PaperModel()}
				if run.capped {
					eng.MemCapBytes = pl.Cost.PeakMemoryBytes
				}
				r, err := eng.RunOptions(pl.Timeline, Options{Workers: workers})
				if err != nil {
					t.Fatalf("%s plan %s workers=%d capped=%v: %v", name, pl.Label, workers, run.capped, err)
				}
				after := m.Stats()
				m.Close()
				reads, writes := after.ReadReqs-before.ReadReqs, after.WriteReqs-before.WriteReqs
				if r.ReadReqs != pl.Cost.ReadReqs || r.WriteReqs != pl.Cost.WriteReqs {
					t.Errorf("%s plan %s workers=%d: Result requests (%d,%d) != predicted (%d,%d)",
						name, pl.Label, workers, r.ReadReqs, r.WriteReqs, pl.Cost.ReadReqs, pl.Cost.WriteReqs)
				}
				if writes != r.WriteReqs {
					t.Errorf("%s plan %s workers=%d: store served %d writes, Result says %d",
						name, pl.Label, workers, writes, r.WriteReqs)
				}
				bound := r.ReadReqs
				if workers > 1 {
					bound = dagReadBound(t, pl.Timeline, r.ReadReqs)
				}
				if reads > bound || (workers == 1 && reads != bound) {
					t.Errorf("%s plan %s workers=%d capped=%v: store served %d reads, bound %d, Result says %d",
						name, pl.Label, workers, run.capped, reads, bound, r.ReadReqs)
				}
			}
		}
	}
}

// dagReadBound is the most store reads a DAG run of tl over the pass-through
// pool may make, given its logical read count: one per block of the prefetch
// walk (buildPipeline lists each once, and the window pins it from its first
// acquisition to its last consumer) plus one per DoIO read outside the walk.
func dagReadBound(t *testing.T, tl *codegen.Timeline, logicalReads int64) int64 {
	t.Helper()
	rs := &runState{tl: tl, sets: tl.AccessSets()}
	intervals, err := rs.coverHolds()
	if err != nil {
		t.Fatal(err)
	}
	pp, err := buildPipeline(tl, rs.sets, intervals)
	if err != nil {
		t.Fatal(err)
	}
	bound := logicalReads + int64(len(pp.prefetch))
	for _, n := range pp.consumers {
		bound -= int64(n)
	}
	return bound
}
