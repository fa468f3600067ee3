package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"riotshare/internal/server"
	"riotshare/internal/telemetry"
)

// sample is one measured request as the client saw it.
type sample struct {
	// start is when the request was sent; latency is POST /submit →
	// /results?wait=1 returns, or → the stream's end frame on a streamed
	// workload.
	start   time.Time
	latency time.Duration
	// firstBlock is submit → first block frame; streamSpan first block →
	// end frame, over streamBytes of payload in frames frames.
	firstBlock, streamSpan time.Duration
	streamBytes            int64
	frames                 int
	// planIOBytes is the logical ReadBytes+WriteBytes of the plan the
	// server executed.
	planIOBytes int64
	// err marks a failed, refused or oracle-mismatched request.
	err error
	// index is the request's position in the list; issued is false for a
	// request the overrun guard never sent.
	index  int
	issued bool
	// root is the server's span tree for the query (traced pass only).
	root *telemetry.Span
}

// pass is one measured phase against one fresh host, with its set-ups.
type pass struct {
	workload *workload
	clients  int
	// setups holds every set-up time taken for this pass, in seconds: child
	// start → last warm-up request done. The last one belongs to the host
	// the measured phase ran on.
	setups []float64
	// n is the number of requests the pass set out to send; samples holds
	// the ones it did send, in list order.
	n       int
	samples []sample
	// before/after bracket the measured phase.
	before, after               server.Stats
	metricsBefore, metricsAfter map[string]float64
	// queuedMax is the deepest admission queue a 10 Hz /stats poll saw
	// (traced pass only).
	queuedMax int
	maxRSSKiB int64
}

func (p *pass) failed() int {
	n := 0
	for _, s := range p.samples {
		if s.err != nil {
			n++
		}
	}
	return n
}

// firstError returns the first failure, for the report.
func (p *pass) firstError() error {
	for _, s := range p.samples {
		if s.err != nil {
			return s.err
		}
	}
	return nil
}

// runner carries what every pass of one workload × seed shares: the request
// list, the oracle's expectations, and the scratch directory.
type runner struct {
	w       *workload
	seed    int64
	seconds int
	outDir  string
	reqs    []request
	bodies  [][]byte
	want    map[*program]expectation
	warm    [][]byte
	hosts   int // hosts started so far, for unique scratch directories
}

func newRunner(w *workload, seed int64, seconds int, outDir string) (*runner, error) {
	r := &runner{w: w, seed: seed, seconds: seconds, outDir: outDir, want: map[*program]expectation{}}
	r.reqs = w.generate(seed, w.count(seconds))
	var err error
	if r.bodies, err = encode(r.reqs); err != nil {
		return nil, err
	}
	orc := newOracle(seed)
	for _, q := range r.reqs {
		if _, ok := r.want[q.prog]; !ok {
			e, err := orc.expect(q.prog)
			if err != nil {
				return nil, err
			}
			r.want[q.prog] = e
		}
	}
	for _, p := range w.warm() {
		b, err := request{prog: p}.body()
		if err != nil {
			return nil, err
		}
		r.warm = append(r.warm, b)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	return r, os.WriteFile(filepath.Join(outDir, w.name+".requests.ndjson"), ndjson(r.bodies), 0o644)
}

// setUp starts a fresh host and warms it up: every warm-up program runs
// once (through the stream path on a streamed workload), which fills every
// shared input and caches every recurring plan. It returns the host and the
// set-up time in seconds.
func (r *runner) setUp() (*host, *client, float64, error) {
	start := time.Now()
	r.hosts++
	dir := filepath.Join(r.outDir, fmt.Sprintf("host-%d-%d", os.Getpid(), r.hosts))
	h, err := startHost(r.w, r.seed, dir)
	if err != nil {
		return nil, nil, 0, err
	}
	c := newClient(h.addr)
	var (
		wg   sync.WaitGroup
		next atomic.Int64
		mu   sync.Mutex
		werr error
	)
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(r.warm) {
					return
				}
				if err := r.warmOne(c, r.warm[i]); err != nil {
					mu.Lock()
					if werr == nil {
						werr = fmt.Errorf("warm-up request %d: %w", i, err)
					}
					mu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	if werr != nil {
		c.close()
		_, _ = h.stop()
		return nil, nil, 0, werr
	}
	return h, c, time.Since(start).Seconds(), nil
}

func (r *runner) warmOne(c *client, body []byte) error {
	id, err := c.submit(body)
	if err != nil {
		return err
	}
	if r.w.stream {
		_, rest, err := c.stream(id, nil)
		if err != nil {
			return err
		}
		if err := drain(rest); err != nil {
			return err
		}
	}
	_, err = c.wait(id)
	return err
}

// extraSetUps measures n further set-ups on throwaway hosts, so a run
// reports the median of several.
func (r *runner) extraSetUps(n int) ([]float64, error) {
	var out []float64
	for i := 0; i < n; i++ {
		h, c, s, err := r.setUp()
		if err != nil {
			return nil, err
		}
		c.close()
		if _, err := h.stop(); err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// one issues request i and records what the client saw. The oracle check
// and the trace fetch happen after the latency clock stops.
func (r *runner) one(c *client, i int, traced bool) (s sample) {
	s.index, s.issued = i, true
	q, want := r.reqs[i], r.want[r.reqs[i].prog]
	start := time.Now()
	s.start = start
	id, err := c.submit(r.bodies[i])
	if err != nil {
		s.err = err
		return s
	}
	var st server.QueryStatus
	if r.w.stream {
		got, rest, err := c.stream(id, want)
		if err != nil {
			s.err = err
			return s
		}
		s.latency = got.end.Sub(start)
		s.firstBlock = got.firstBlock.Sub(start)
		s.streamSpan = got.end.Sub(got.firstBlock)
		s.streamBytes, s.frames = got.bytes, got.frames
		if err := drain(rest); err != nil {
			s.err = err
			return s
		}
		st, err = c.wait(id)
		if err != nil {
			s.err = err
			return s
		}
	} else {
		st, err = c.wait(id)
		s.latency = time.Since(start)
		if err != nil {
			s.err = err
			return s
		}
	}
	if err := want.checkOutputs(st.Outputs); err != nil {
		s.err = fmt.Errorf("%s (%s): %w", id, q.prog.name, err)
		return s
	}
	if st.Result == nil {
		s.err = fmt.Errorf("%s: done without a result", id)
		return s
	}
	s.planIOBytes = st.Result.ReadBytes + st.Result.WriteBytes
	if traced {
		if s.root, err = c.trace(id); err != nil {
			s.err = err
		}
	}
	return s
}

// overrunFactor bounds the measured phase at this many times -seconds.
const overrunFactor = 4

// measure runs one pass: set up a fresh host, drive requests [0,n) through
// nClients closed-loop clients, and stop the host.
func (r *runner) measure(n, nClients int, traced bool) (*pass, error) {
	p := &pass{workload: r.w, clients: nClients, n: n}
	h, c, setup, err := r.setUp()
	if err != nil {
		return nil, err
	}
	p.setups = []float64{setup}
	stopped := false
	defer func() {
		c.close()
		if !stopped {
			_, _ = h.stop()
		}
	}()

	if p.before, err = c.stats(); err != nil {
		return nil, err
	}
	if traced {
		if p.metricsBefore, err = c.metrics(); err != nil {
			return nil, err
		}
	}
	var pollWG sync.WaitGroup
	pollStop := make(chan struct{})
	if traced {
		pollWG.Add(1)
		go func() {
			defer pollWG.Done()
			tick := time.NewTicker(100 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-pollStop:
					return
				case <-tick.C:
					if st, err := c.stats(); err == nil && st.Queued > p.queuedMax {
						p.queuedMax = st.Queued
					}
				}
			}
		}()
	}

	all := make([]sample, n)
	var (
		wg   sync.WaitGroup
		next atomic.Int64
	)
	start := time.Now()
	// The request count is fixed, so a much slower build would run long;
	// past overrunFactor × -seconds the clients stop issuing and the run
	// reports what it attempted.
	deadline := start.Add(overrunFactor * time.Duration(r.seconds) * time.Second)
	for k := 0; k < nClients; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				all[i] = r.one(c, i, traced)
			}
		}()
	}
	wg.Wait()
	for _, s := range all {
		if s.issued {
			p.samples = append(p.samples, s)
		}
	}
	close(pollStop)
	pollWG.Wait()

	if p.after, err = c.stats(); err != nil {
		return nil, err
	}
	if traced {
		if p.metricsAfter, err = c.metrics(); err != nil {
			return nil, err
		}
	}
	stopped = true
	if p.maxRSSKiB, err = h.stop(); err != nil {
		return nil, err
	}
	return p, nil
}
