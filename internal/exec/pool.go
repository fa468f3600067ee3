// pool.go is the one source of blocks: every physical block read and write
// of a run goes through a BlockPool. A sharing-aware pool (buffer.Pool)
// makes a block read by one query a cache hit for the next — the
// cross-query extension of the paper's intra-program I/O sharing — and
// defers writes; a run given no pool gets directPool, the trivial one over
// its store. execEvent pins frames for exactly the plan's hold intervals:
// while a block sits in a plan's working set the pool may not evict it, and
// when the hold expires the frame returns to the pool's own replacement
// order.
package exec

import (
	"sync"

	"riotshare/internal/blas"
	"riotshare/internal/prog"
	"riotshare/internal/storage"
)

// BlockPool is the block cache the engine gets, puts and releases every
// block through. A pin keeps the frame resident; it is not what keeps a
// borrowed matrix valid — that outlives eviction and re-Put, unchanged,
// for as long as the caller references it. *buffer.Pool and its aliasing
// sessions implement this interface.
type BlockPool interface {
	// Acquire returns block (r, c) of array with one pin held on the
	// underlying frame. The matrix is borrowed: the pool and every other
	// acquirer hold the same one, so the caller must not write to it.
	Acquire(array string, r, c int64) (*blas.Matrix, error)
	// Put installs a written block, also with one pin held. The pool
	// keeps no reference to blk, so the caller may go on writing to it.
	Put(array string, r, c int64, blk *blas.Matrix) error
	// Unpin releases n pins on the block's frame.
	Unpin(array string, r, c int64, n int)
}

// directPool is the BlockPool of a run that was given none: a pass-through
// over the store with no capacity of its own. Put writes through and keeps
// no value, so the next Acquire reads the store. Under the in-order schedule
// (frames nil) that is all: one goroutine, nobody to share with, and every
// Acquire is the physical read the plan predicted. Under the DAG schedule a
// block is also resident exactly while pinned — concurrent acquirers, and the
// consumers of a block the prefetch window has pinned, share one read and
// one matrix — and the last Unpin forgets the frame.
type directPool struct {
	store storage.Backend

	mu     sync.Mutex
	frames map[prog.BlockID]*directFrame
}

// directFrame is one pinned block; load fills blk and err from the store.
type directFrame struct {
	pins int
	load sync.Once
	blk  *blas.Matrix
	err  error
}

func newDirectPool(store storage.Backend, share bool) *directPool {
	d := &directPool{store: store}
	if share {
		d.frames = make(map[prog.BlockID]*directFrame)
	}
	return d
}

func (d *directPool) Acquire(array string, r, c int64) (*blas.Matrix, error) {
	if d.frames == nil {
		return d.store.ReadBlock(array, r, c)
	}
	id := prog.BlockID{Array: array, R: r, C: c}
	d.mu.Lock()
	f := d.frames[id]
	if f == nil {
		f = &directFrame{}
		d.frames[id] = f
	}
	f.pins++
	d.mu.Unlock()
	f.load.Do(func() { f.blk, f.err = d.store.ReadBlock(array, r, c) })
	if f.err != nil {
		d.Unpin(array, r, c, 1)
	}
	return f.blk, f.err
}

func (d *directPool) Put(array string, r, c int64, blk *blas.Matrix) error {
	if err := d.store.WriteBlock(array, r, c, blk); err != nil || d.frames == nil {
		return err
	}
	id := prog.BlockID{Array: array, R: r, C: c}
	d.mu.Lock()
	defer d.mu.Unlock()
	// A new, unloaded frame takes over the pins: whoever acquired the old
	// value keeps its matrix, later acquirers read the new one.
	nf := &directFrame{pins: 1}
	if f := d.frames[id]; f != nil {
		nf.pins += f.pins
	}
	d.frames[id] = nf
	return nil
}

func (d *directPool) Unpin(array string, r, c int64, n int) {
	id := prog.BlockID{Array: array, R: r, C: c}
	d.mu.Lock()
	defer d.mu.Unlock()
	if f := d.frames[id]; f != nil {
		if f.pins -= n; f.pins <= 0 {
			delete(d.frames, id)
		}
	}
}
