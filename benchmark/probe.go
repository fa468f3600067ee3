package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"riotshare/internal/blas"
	"riotshare/internal/buffer"
	"riotshare/internal/codegen"
	"riotshare/internal/core"
	"riotshare/internal/cost"
	"riotshare/internal/deps"
	"riotshare/internal/disk"
	"riotshare/internal/exec"
	"riotshare/internal/prog"
	"riotshare/internal/server"
	"riotshare/internal/storage"
)

// Layer probes measure single layers from outside, in the benchmark's own
// files: the workload's distinct programs are replayed through
// core.OptimizeGreedy → exec.Engine.RunOptions with span-recording wrappers
// around the buffer pool and the storage backend, giving parent-linked
// spans query → core.plan | exec.run → buffer.acquire/put →
// storage.read/write. The replay uses the sequential interpreter so the
// span tree is single-goroutine and every count repeats exactly; the
// parallel engine's effects show in server.exec_ms_p50 and exec.prefetch_*.

const (
	// probePrograms bounds how many distinct programs a probe replays
	// (cold-plan has hundreds); each is run probeReplays times, or as often
	// as it takes to replay probeQueries queries, the first replay planning
	// and later ones reusing the plan as the server's plan cache would.
	probePrograms = 24
	probeReplays  = 3
	probeQueries  = 12
	// fullSearchPrograms is how many programs get the full Apriori search
	// next to the greedy one; fullSearchBudget bounds each.
	fullSearchPrograms = 8
	fullSearchBudget   = 10 * time.Second
)

// spanPool records a span around every block acquisition and install.
type spanPool struct {
	inner    exec.BlockPool
	rec      *recorder
	putBytes int64
}

func (p *spanPool) Acquire(array string, r, c int64) (*blas.Matrix, error) {
	id := p.rec.begin("buffer.acquire")
	defer p.rec.end(id)
	return p.inner.Acquire(array, r, c)
}

func (p *spanPool) Put(array string, r, c int64, blk *blas.Matrix) error {
	id := p.rec.begin("buffer.put")
	defer p.rec.end(id)
	p.putBytes += int64(len(blk.Data)) * 8
	return p.inner.Put(array, r, c, blk)
}

func (p *spanPool) Unpin(array string, r, c int64, n int) { p.inner.Unpin(array, r, c, n) }

// spanStore records a span around every block read and write that reaches
// the storage backend (local, sharded, or remote shards).
type spanStore struct {
	storage.Backend
	rec *recorder
}

func (s *spanStore) ReadBlock(array string, r, c int64) (*blas.Matrix, error) {
	id := s.rec.begin("storage.read")
	defer s.rec.end(id)
	return s.Backend.ReadBlock(array, r, c)
}

func (s *spanStore) WriteBlock(array string, r, c int64, blk *blas.Matrix) error {
	id := s.rec.begin("storage.write")
	defer s.rec.end(id)
	return s.Backend.WriteBlock(array, r, c, blk)
}

// probeData is what the probes measured, before reduction to metrics.
type probeData struct {
	spans   []span
	queries int // replayed queries (exec runs)

	greedyMs, analyzeMs, lowerMs, evaluateMs, fullMs []float64
	shares, findScheduleCalls, timelineEvents        []float64
	greedyVsFullMax                                  float64

	kernelCPUMs  []float64
	peakMemBytes int64

	putBytes, physWriteBytes int64
	gemm128Us                float64
	readRTTUs, writeRTTUs    []float64
}

// openBackend opens the storage backend a server with this configuration
// would (single directory, sharded, or remote shards).
func openBackend(cfg server.Config) (storage.Backend, error) {
	if cfg.Shards > 1 || len(cfg.ShardAddrs) > 0 || cfg.Replicas > 1 {
		var specs []string
		if len(cfg.ShardAddrs) == 0 {
			specs = storage.ShardDirs(cfg.Dir, cfg.Shards)
		}
		specs = append(specs, cfg.ShardAddrs...)
		return storage.OpenSharded(specs, storage.ShardedOptions{Replicas: cfg.Replicas, Remote: cfg.Remote})
	}
	return storage.NewManager(cfg.Dir, cfg.Format)
}

func progArray(m matrix, name string) *prog.Array {
	return &prog.Array{
		Name:      name,
		BlockRows: m.blockRows, BlockCols: m.blockCols,
		GridRows: m.gridRows, GridCols: m.gridCols,
		LogicalBlockBytes: int64(m.blockRows) * int64(m.blockCols) * 8,
		Transient:         m.transient,
	}
}

// probe replays the workload's distinct programs through the layers.
func (r *runner) probe(ctx context.Context) (*probeData, error) {
	dir := filepath.Join(r.outDir, fmt.Sprintf("probe-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	addrs, stopBlockd, err := startBlockd(dir, r.w.blockd)
	if err != nil {
		return nil, err
	}
	defer stopBlockd()
	cfg := r.w.config(filepath.Join(dir, "store"), r.seed, addrs)
	backend, err := openBackend(cfg)
	if err != nil {
		return nil, err
	}
	defer backend.Close()

	rec := newRecorder()
	store := &spanStore{Backend: backend, rec: rec}
	pool, err := buffer.NewPoolOptions(store, buffer.Options{CapacityBytes: cfg.PoolBytes, Policy: cfg.PoolPolicy})
	if err != nil {
		return nil, err
	}

	// Distinct programs in first-appearance order.
	var progs []*program
	seen := map[*program]bool{}
	for _, q := range r.reqs {
		if !seen[q.prog] && len(progs) < probePrograms {
			seen[q.prog] = true
			progs = append(progs, q.prog)
		}
	}
	// Shared inputs are filled straight into the backend, as the server's
	// set-up does; fills are not part of any span.
	filled := map[string]bool{}
	for _, p := range progs {
		for _, m := range p.inputs() {
			if filled[m.name] {
				continue
			}
			filled[m.name] = true
			arr := progArray(m, m.name)
			if err := backend.Create(arr); err != nil {
				return nil, err
			}
			if err := server.FillInput(backend, arr, r.seed); err != nil {
				return nil, err
			}
		}
	}

	d := &probeData{}
	model := disk.PaperModel()
	replays := probeReplays
	if len(progs)*replays < probeQueries {
		replays = (probeQueries + len(progs) - 1) / len(progs)
	}
	if len(progs) == probePrograms {
		replays = 1 // all-distinct workload: nothing recurs
	}
	plans := make([]*core.Result, len(progs))
	built := make([]*prog.Program, len(progs))
	before := backend.Stats()
	run := 0
	for rep := 0; rep < replays; rep++ {
		for i, p := range progs {
			root := rec.begin("query")
			if plans[i] == nil {
				if built[i], err = p.spec().Build(); err != nil {
					return nil, err
				}
				sp := rec.begin("core.plan")
				pctx, cancel := context.WithTimeout(ctx, cfg.PlanBudget)
				t0 := time.Now()
				plans[i], err = core.OptimizeGreedy(pctx, built[i], core.Options{BindParams: true})
				d.greedyMs = append(d.greedyMs, ms(time.Since(t0)))
				cancel()
				rec.end(sp)
				if err != nil {
					return nil, fmt.Errorf("probe: plan %s: %w", p.name, err)
				}
				d.findScheduleCalls = append(d.findScheduleCalls, float64(plans[i].SearchStats.FindScheduleCalls))
			}
			best := plans[i].Best
			if best == nil {
				return nil, fmt.Errorf("probe: %s has no plan", p.name)
			}
			run++
			alias := map[string]string{}
			for _, m := range p.arrays {
				if filled[m.name] {
					continue
				}
				alias[m.name] = fmt.Sprintf("p%d.%s", run, m.name)
				if err := backend.Create(progArray(m, alias[m.name])); err != nil {
					return nil, err
				}
			}
			sp := &spanPool{inner: pool.Session(alias), rec: rec}
			eng := &exec.Engine{Store: store, Model: model, Pool: sp}
			xs := rec.begin("exec.run")
			res, err := eng.RunOptions(best.Timeline, exec.Options{Workers: 1})
			rec.end(xs)
			if err != nil {
				return nil, fmt.Errorf("probe: run %s: %w", p.name, err)
			}
			fl := rec.begin("buffer.flush")
			for _, phys := range alias {
				if err := pool.InvalidateArray(phys); err != nil {
					return nil, err
				}
			}
			rec.end(fl)
			rec.end(root)
			d.queries++
			d.putBytes += sp.putBytes
			d.kernelCPUMs = append(d.kernelCPUMs, ms(res.CPUTime))
			if res.PeakMemoryBytes > d.peakMemBytes {
				d.peakMemBytes = res.PeakMemoryBytes
			}
			if err := r.checkProbeOutputs(backend, p, alias); err != nil {
				return nil, err
			}
			for _, phys := range alias {
				pool.DiscardArray(phys)
				if err := backend.Drop(phys, true); err != nil {
					return nil, err
				}
			}
		}
	}
	d.physWriteBytes = backend.Stats().WriteBytes - before.WriteBytes
	d.spans = rec.snapshot()

	// Planner components, timed one by one on the plans just found.
	for i := range progs {
		t0 := time.Now()
		an, err := deps.Analyze(built[i], deps.Options{BindParams: true})
		d.analyzeMs = append(d.analyzeMs, ms(time.Since(t0)))
		if err != nil {
			return nil, err
		}
		d.shares = append(d.shares, float64(len(an.Shares)))
		t0 = time.Now()
		tl, err := codegen.Lower(plans[i].Analysis, plans[i].Best.Plan)
		d.lowerMs = append(d.lowerMs, ms(time.Since(t0)))
		if err != nil {
			return nil, err
		}
		d.timelineEvents = append(d.timelineEvents, float64(len(tl.Events)))
		t0 = time.Now()
		cost.Evaluate(tl, model)
		d.evaluateMs = append(d.evaluateMs, ms(time.Since(t0)))
	}
	// Full search next to greedy on the first few programs: what the fast
	// path gives up in plan quality.
	for i := 0; i < len(progs) && i < fullSearchPrograms; i++ {
		fctx, cancel := context.WithTimeout(ctx, fullSearchBudget)
		t0 := time.Now()
		full, err := core.OptimizeCtx(fctx, built[i], core.Options{BindParams: true})
		took := ms(time.Since(t0))
		cancel()
		if err != nil || full.Best == nil {
			continue // over budget: not a sample
		}
		d.fullMs = append(d.fullMs, took)
		ratio := float64(plans[i].Best.Cost.LogicalIOBytes()) / float64(full.Best.Cost.LogicalIOBytes())
		if ratio > d.greedyVsFullMax {
			d.greedyVsFullMax = ratio
		}
	}
	d.gemm128Us = gemmProbe(128)
	if len(addrs) > 0 {
		if d.readRTTUs, d.writeRTTUs, err = rttProbe(addrs[0]); err != nil {
			return nil, err
		}
	}
	return d, rec.dump(filepath.Join(r.outDir, "trace-"+r.w.name+".json"))
}

// checkProbeOutputs holds the replayed run to the same oracle as the
// served queries.
func (r *runner) checkProbeOutputs(backend storage.Backend, p *program, alias map[string]string) error {
	want := r.want[p]
	var outs []server.OutputInfo
	for _, m := range p.outputs() {
		sum := 0.0
		for br := 0; br < m.gridRows; br++ {
			for bc := 0; bc < m.gridCols; bc++ {
				blk, err := backend.ReadBlock(alias[m.name], int64(br), int64(bc))
				if err != nil {
					return err
				}
				for _, v := range blk.Data {
					sum += v
				}
			}
		}
		outs = append(outs, server.OutputInfo{Array: m.name, Sum: sum})
	}
	if err := want.checkOutputs(outs); err != nil {
		return fmt.Errorf("probe: %s: %w", p.name, err)
	}
	return nil
}

// gemmProbe times one n×n block product, median of several.
func gemmProbe(n int) float64 {
	a, b, dst := blas.NewMatrix(n, n), blas.NewMatrix(n, n), blas.NewMatrix(n, n)
	for i := range a.Data {
		a.Data[i], b.Data[i] = float64(i%7)-3, float64(i%5)-2
	}
	var took []float64
	for k := 0; k < 15; k++ {
		dst.Zero()
		t0 := time.Now()
		blas.Gemm(dst, a, false, b, false)
		took = append(took, us(time.Since(t0)))
	}
	return median(took)
}

// rttProbe times single block writes and reads against one block server
// through a RemoteShard client of its own.
func rttProbe(addr string) (readUs, writeUs []float64, err error) {
	const n = 64
	rs := storage.NewRemoteShard(addr, storage.RemoteOptions{})
	defer rs.Close()
	arr := &prog.Array{Name: "rtt-probe", BlockRows: streamBlock, BlockCols: streamBlock, GridRows: 1, GridCols: n}
	if err := rs.Create(arr); err != nil {
		return nil, nil, err
	}
	blk := blas.NewMatrix(streamBlock, streamBlock)
	for c := int64(0); c < n; c++ {
		t0 := time.Now()
		if err := rs.WriteBlock(arr.Name, 0, c, blk); err != nil {
			return nil, nil, err
		}
		writeUs = append(writeUs, us(time.Since(t0)))
	}
	for c := int64(0); c < n; c++ {
		t0 := time.Now()
		if _, err := rs.ReadBlock(arr.Name, 0, c); err != nil {
			return nil, nil, err
		}
		readUs = append(readUs, us(time.Since(t0)))
	}
	return readUs, writeUs, rs.Drop(arr.Name, true)
}
