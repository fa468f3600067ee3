// pool.go hooks the interpreter into a sharing-aware block pool. When
// Engine.Pool is set, every physical block read and write goes through the
// pool instead of raw storage, so a block read by one query is a cache hit
// for the next (the cross-query extension of the paper's intra-program I/O
// sharing). execEvent pins pool frames for exactly the plan's hold
// intervals: while a block sits in a plan's working set the pool may not
// evict it, and when the hold expires the frame returns to LRU order.
package exec

import (
	"riotshare/internal/blas"
)

// BlockPool is the block cache the engine acquires blocks through when
// Engine.Pool is set. Acquire returns the block with one pin held on the
// underlying frame; the matrix is borrowed — the pool and every other
// acquirer hold the same one — so the caller must not write to it. Put
// installs a written block (the pool keeps its own copy, marked dirty for
// write-back, so the caller may go on writing to blk) also with one pin
// held; Unpin releases n pins. A pin keeps the frame resident; it is not
// what keeps a borrowed matrix valid — that outlives eviction and re-Put,
// unchanged, for as long as the caller references it. *buffer.Pool and its
// aliasing sessions implement this interface.
type BlockPool interface {
	Acquire(array string, r, c int64) (*blas.Matrix, error)
	Put(array string, r, c int64, blk *blas.Matrix) error
	Unpin(array string, r, c int64, n int)
}

// writeThrough performs one physical block write through the pool when
// present (deferred write-back) or directly to storage. The returned pinned
// flag tells the caller it owns one pool pin.
func (e *Engine) writeThrough(array string, r, c int64, blk *blas.Matrix) (pinned bool, err error) {
	if e.Pool != nil {
		err = e.Pool.Put(array, r, c, blk)
		return err == nil, err
	}
	return false, e.Store.WriteBlock(array, r, c, blk)
}

// pinSet tracks the pool pins one run owns, keyed by block key. It lets
// execEvent drive pin lifetimes off the plan's hold intervals and guarantees
// nothing stays pinned after the run (releaseAll on every exit path).
type pinSet struct {
	pool BlockPool
	pins map[string]*pinInfo
}

type pinInfo struct {
	array string
	r, c  int64
	n     int
}

func newPinSet(pool BlockPool) *pinSet {
	if pool == nil {
		return nil
	}
	return &pinSet{pool: pool, pins: make(map[string]*pinInfo)}
}

// add records one owned pin for the block (acquired via readBlock or
// writeThrough).
func (ps *pinSet) add(key, array string, r, c int64) {
	if ps == nil {
		return
	}
	if pi, ok := ps.pins[key]; ok {
		pi.n++
		return
	}
	ps.pins[key] = &pinInfo{array: array, r: r, c: c, n: 1}
}

// drop releases every owned pin for key.
func (ps *pinSet) drop(key string) {
	if ps == nil {
		return
	}
	if pi, ok := ps.pins[key]; ok {
		ps.pool.Unpin(pi.array, pi.r, pi.c, pi.n)
		delete(ps.pins, key)
	}
}

// transfer moves the owned pins for key into another pinSet (execEvent hands
// event-local pins to interval-scoped ownership).
func (ps *pinSet) transfer(key string, to *pinSet) {
	if ps == nil || to == nil {
		return
	}
	pi, ok := ps.pins[key]
	if !ok {
		return
	}
	if t, dup := to.pins[key]; dup {
		t.n += pi.n
	} else {
		to.pins[key] = &pinInfo{array: pi.array, r: pi.r, c: pi.c, n: pi.n}
	}
	delete(ps.pins, key)
}

// releaseAll unpins everything still owned.
func (ps *pinSet) releaseAll() {
	if ps == nil {
		return
	}
	for key := range ps.pins {
		ps.drop(key)
	}
}
