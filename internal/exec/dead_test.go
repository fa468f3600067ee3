package exec

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"riotshare/internal/blas"
	"riotshare/internal/buffer"
	"riotshare/internal/codegen"
	"riotshare/internal/core"
	"riotshare/internal/disk"
	"riotshare/internal/ops"
	"riotshare/internal/prog"
	"riotshare/internal/storage"
)

// deathWatch wraps a run's BlockPool and records Engine.OnBlockDead calls;
// an Acquire or Put of a block already announced dead is an error, since
// the announcement promised the run would never touch it again.
type deathWatch struct {
	BlockPool
	mu   sync.Mutex
	dead map[string]int // announcements per block key
	errs []string
}

func newDeathWatch(pool BlockPool) *deathWatch {
	return &deathWatch{BlockPool: pool, dead: make(map[string]int)}
}

func (d *deathWatch) touch(op, array string, r, c int64) {
	key := codegen.BlockKey(array, r, c)
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.dead[key] > 0 {
		d.errs = append(d.errs, fmt.Sprintf("%s of %s after it was announced dead", op, key))
	}
}

func (d *deathWatch) Acquire(array string, r, c int64) (*blas.Matrix, error) {
	d.touch("Acquire", array, r, c)
	return d.BlockPool.Acquire(array, r, c)
}

func (d *deathWatch) Put(array string, r, c int64, blk *blas.Matrix) error {
	d.touch("Put", array, r, c)
	return d.BlockPool.Put(array, r, c, blk)
}

func (d *deathWatch) announce(array string, r, c int64) {
	d.mu.Lock()
	d.dead[codegen.BlockKey(array, r, c)]++
	d.mu.Unlock()
}

// deadLeg is one pool configuration of the death tests: the watched pool a
// run goes through, the OnBlockDead hook that records and forwards each
// announcement, and the run's leftover pinned frames.
type deadLeg struct {
	watch  *deathWatch
	hook   func(array string, r, c int64)
	pinned func() int
}

// openDeadLeg wraps a buffer.Pool session (small enough to evict mid-run,
// with the session's DiscardBlock as the hook's target) or, with pooled
// false, the pass-through pool of a run given none.
func openDeadLeg(store storage.Backend, workers int, pooled bool) deadLeg {
	var leg deadLeg
	var discard func(array string, r, c int64)
	if pooled {
		bp := buffer.NewPool(store, 4<<10)
		sess := bp.Session(nil)
		leg.watch, discard = newDeathWatch(sess), sess.DiscardBlock
		leg.pinned = func() int { return bp.Stats().PinnedFrames }
	} else {
		d := newDirectPool(store, workers > 1)
		leg.watch, leg.pinned = newDeathWatch(d), d.pinnedFrames
	}
	leg.hook = func(array string, r, c int64) {
		leg.watch.announce(array, r, c)
		if discard != nil {
			discard(array, r, c)
		}
	}
	return leg
}

// Every transient block a plan touches is announced dead exactly once,
// after the run's last Acquire or Put of it, and no persistent block ever
// is — for every plan of addmul and twomm, and a linreg plan whose
// transient accumulators are read and written by one event, under either
// schedule, through a buffer pool session and without one. A run whose
// block reads fail from the first one completes no event that reads, so it
// announces nothing.
func TestDeadBlocksAnnouncedAfterLastUse(t *testing.T) {
	cases := []struct {
		name    string
		prog    *prog.Program
		subsets [][]string
	}{
		{name: "addmul", prog: addMulProgram(3, 4, 2)},
		{name: "twomm", prog: ops.TwoMM(ops.TwoMMConfig{
			N1: 3, N2: 4, N3: 3, N4: 4,
			ABlock: ops.Dims{Rows: 4, Cols: 4}, BBlock: ops.Dims{Rows: 4, Cols: 4},
			DBlock: ops.Dims{Rows: 4, Cols: 4},
		})},
		{name: "linreg", prog: ops.LinReg(ops.LinRegConfig{
			N: 4, XBlock: ops.Dims{Rows: 12, Cols: 5}, YBlock: ops.Dims{Rows: 12, Cols: 3},
		}), subsets: [][]string{
			{"s1RX→s2RX", "s1WU→s3RU", "s2WV→s4RV", "s3WW→s4RW", "s5WYh→s6RYh", "s6WEv→s7REv"},
		}},
	}
	for _, tc := range cases {
		p := tc.prog
		var res *core.Result
		var err error
		if tc.subsets != nil {
			res, err = core.OptimizeSubsets(p, core.Options{BindParams: true}, tc.subsets)
		} else {
			res, err = core.Optimize(p, core.Options{BindParams: true})
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, pl := range res.Plans {
			// The transient blocks the timeline touches (none in twomm,
			// whose every array persists).
			want := make(map[string]bool)
			for _, set := range pl.Timeline.AccessSets() {
				for _, ba := range set {
					if p.Arrays[ba.Array].Transient {
						want[ba.Key] = true
					}
				}
			}
			for _, workers := range []int{1, 4} {
				for _, pooled := range []bool{false, true} {
					name := fmt.Sprintf("%s/%s/workers=%d/pooled=%v", tc.name, pl.Label, workers, pooled)
					m, err := storage.NewManager(t.TempDir(), storage.FormatDAF)
					if err != nil {
						t.Fatal(err)
					}
					if err := m.CreateAll(p); err != nil {
						t.Fatal(err)
					}
					fillInputs(t, p, m, 42)
					leg := openDeadLeg(m, workers, pooled)
					eng := &Engine{Store: m, Model: disk.PaperModel(), OnBlockDead: leg.hook}
					if _, err := eng.RunOptions(pl.Timeline, Options{Workers: workers, Pool: leg.watch}); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					m.Close()
					if n := leg.pinned(); n != 0 {
						t.Errorf("%s: %d frames still pinned", name, n)
					}
					for _, e := range leg.watch.errs {
						t.Errorf("%s: %s", name, e)
					}
					for key, n := range leg.watch.dead {
						if !want[key] {
							t.Errorf("%s: %s announced dead but is not a transient block of the timeline", name, key)
						} else if n != 1 {
							t.Errorf("%s: %s announced %d times, want once", name, key, n)
						}
					}
					if len(leg.watch.dead) != len(want) {
						t.Errorf("%s: %d blocks announced, want all %d transient blocks", name, len(leg.watch.dead), len(want))
					}
				}
			}
		}
	}

	p := cases[0].prog
	res, err := core.Optimize(p, core.Options{BindParams: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, pl := range []*core.EvaluatedPlan{res.Baseline(), &res.Plans[0]} {
		for _, workers := range []int{1, 4} {
			for _, pooled := range []bool{false, true} {
				name := fmt.Sprintf("%s/workers=%d/pooled=%v", pl.Label, workers, pooled)
				m, err := storage.NewManager(t.TempDir(), storage.FormatDAF)
				if err != nil {
					t.Fatal(err)
				}
				if err := m.CreateAll(p); err != nil {
					t.Fatal(err)
				}
				fillInputs(t, p, m, 42)
				fs := &faultyStore{Backend: m, failRead: 1}
				leg := openDeadLeg(fs, workers, pooled)
				eng := &Engine{Store: fs, Model: disk.PaperModel(), OnBlockDead: leg.hook}
				_, err = eng.RunOptions(pl.Timeline, Options{Workers: workers, Pool: leg.watch})
				m.Close()
				if !errors.Is(err, errInjected) {
					t.Errorf("%s: run returned %v, want the injected failure", name, err)
				}
				if n := len(leg.watch.dead); n != 0 {
					t.Errorf("%s: a failed run announced %d dead blocks, want 0", name, n)
				}
			}
		}
	}
}
