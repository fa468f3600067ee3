// Package buffer is a capacity-bounded, sharing-aware buffer pool in front
// of the storage manager. It extends the paper's intra-program I/O sharing
// across concurrent queries: a block read by one query stays cached (one
// pristine frame per block) and is a memory hit for every later acquisition
// by any query over the same pool, until eviction reclaims it.
//
// Frames carry ref-counted pins driven by each plan's hold intervals (the
// execution engines pin on acquisition and keep one pin per active hold;
// see internal/exec): pinned frames are never evicted, unpinned frames age
// out in least-recently-unpinned order (LRU). Writes are deferred:
// Put installs a dirty frame which is written back to storage on eviction
// or Flush, so repeated writes to one block (accumulator chains) reach disk
// once — or never, when the block is discarded first (DiscardBlock: a
// plan's intermediate after its last use).
//
// The pool is tenant-aware for accounting only: sessions carry a tenant
// label, and hits, misses, and resident bytes are attributed to the tenant
// that acquired or installed them. Eviction ignores tenants.
//
// Capacity is a soft bound: when every frame is pinned the pool admits the
// acquisition anyway (refusing would deadlock a running plan) and evicts
// back down as pins release.
//
// No store I/O runs under the pool lock on the query path. A miss reads
// with the lock released, and every write-back of a dirty frame — an
// eviction victim, a released block — runs with the lock released too: a
// temporary pin keeps the frame resident, counted and out of the eviction
// order until the store has the data, so an Acquire of it meanwhile is a
// hit and a re-Put keeps its fresh data dirty. The operation that pushed
// the pool over capacity writes its own victims back and returns only when
// residency is back at the capacity, so a slow store stalls that caller,
// not the pool. Victims in flight stay counted, so the unlocked writes add
// to the soft overage: residency can exceed the capacity by at most one
// block for each goroutine evicting at that moment (each added at most one
// block before it began, and none returns before residency is back at the
// capacity or nothing is left to evict). Flush and DiscardArray wait for
// in-flight write-backs before they act.
//
// Blocks are shared and immutable: Acquire hands out the frame's matrix
// itself, the same one to every acquirer, and nobody — the pool included —
// ever writes to it. Put never overwrites a frame's matrix either; it swaps
// in a private copy of the caller's block, so a borrower keeps seeing the
// value it acquired even after a re-Put or an eviction (the garbage
// collector keeps the old matrix alive while anyone references it). A pin
// therefore protects residency only — the frame cannot be evicted, so the
// next Acquire is a hit — never the validity of a borrowed matrix. A caller
// that wants to change a block allocates its own and Puts it.
//
// The pool keys frames by (array, block coordinates) only — placement,
// sharding, and replication live below the storage.Backend it fronts. A
// sharded store, a replicated one, even one running degraded with reads
// falling back to replicas, all compose with the pool unchanged: a miss
// fetches through Backend.ReadBlock wherever the live copy is, and dirty
// write-back lands on every live replica.
package buffer

import (
	"container/list"
	"fmt"
	"sync"
	"time"

	"riotshare/internal/blas"
	"riotshare/internal/prog"
	"riotshare/internal/storage"
)

// Options configures a pool beyond its storage manager.
type Options struct {
	// CapacityBytes bounds cached bytes (soft; <= 0 = unlimited), in
	// physical bytes: what the store's blocks occupy, not their logical
	// (paper-scale) size.
	CapacityBytes int64
	// Policy names the replacement policy. LRU is the only one: "" or
	// "lru"; NewPoolOptions refuses any other value.
	Policy string
}

// Pool is the shared block cache. It is safe for concurrent use by many
// queries.
type Pool struct {
	store storage.Backend
	// capBytes bounds cached bytes (soft; <= 0 = unlimited).
	capBytes int64

	mu     sync.Mutex
	frames map[prog.BlockID]*frame
	// lru orders the evictable (unpinned, resident) frames: a frame joins
	// at the back when its last pin releases, and the front is the next
	// victim.
	lru   *list.List
	bytes int64
	// peakBytes is the high-water mark of cached bytes measured after each
	// eviction pass — the pool's steady-state residency peak. A single
	// acquisition can transiently exceed it by one block while eviction
	// runs; the streaming bench gates on this value staying at or under
	// the capacity for results far larger than the pool.
	peakBytes int64
	tenants   map[string]*tenantCounters

	hits, misses, puts              int64
	evictions, writebacks, discards int64
	evictErr                        error // sticky write-back failure from capacity eviction
	// evictWriteTime and releaseWriteTime total the time spent in store
	// writes of dirty frames by eviction and by ReleaseBlock.
	evictWriteTime, releaseWriteTime time.Duration
}

// tenantCounters aggregates one tenant's pool activity.
type tenantCounters struct {
	hits, misses int64
	bytes        int64
}

// frame is one cached block.
type frame struct {
	id     prog.BlockID
	tenant string // installer, for residency accounting

	blk   *blas.Matrix
	bytes int64
	pins  int
	dirty bool
	// elem is the frame's place in Pool.lru; non-nil exactly while the
	// frame is unpinned and resident (evictable).
	elem *list.Element
	// loading is non-nil while the leader's miss read is in flight;
	// followers wait on it instead of issuing a duplicate read.
	loading chan struct{}
	err     error
	// writing is non-nil while a write-back of the frame (eviction or
	// ReleaseBlock) is in flight; a concurrent release waits on it instead
	// of writing the same data a second time, and Flush and DiscardArray
	// wait on it before they act.
	writing chan struct{}
}

// NewPool creates a pool over the manager with the given soft capacity in
// physical bytes (<= 0 = unlimited). A plan's logical memory figures
// (cost.Cost.PeakMemoryBytes) must be scaled down before they can cap a
// pool; baseline.LogicalScale gives the ratio.
func NewPool(store storage.Backend, capacityBytes int64) *Pool {
	return &Pool{
		store:    store,
		capBytes: capacityBytes,
		frames:   make(map[prog.BlockID]*frame),
		lru:      list.New(),
		tenants:  make(map[string]*tenantCounters),
	}
}

// NewPoolOptions is NewPool configured by Options.
func NewPoolOptions(store storage.Backend, opt Options) (*Pool, error) {
	if opt.Policy != "" && opt.Policy != "lru" {
		return nil, fmt.Errorf("buffer: unknown replacement policy %q (only lru exists)", opt.Policy)
	}
	return NewPool(store, opt.CapacityBytes), nil
}

// tenantLocked returns (creating on first use) the per-tenant counters;
// every caller holds p.mu.
func (p *Pool) tenantLocked(name string) *tenantCounters {
	tc := p.tenants[name]
	if tc == nil {
		tc = &tenantCounters{}
		p.tenants[name] = tc
	}
	return tc
}

// installLocked accounts a newly resident frame's bytes.
func (p *Pool) installLocked(f *frame) {
	p.bytes += f.bytes
	p.tenantLocked(f.tenant).bytes += f.bytes
}

// unlinkLocked takes f out of the eviction order, if it is in it.
func (p *Pool) unlinkLocked(f *frame) {
	if f.elem != nil {
		p.lru.Remove(f.elem)
		f.elem = nil
	}
}

// forgetLocked reverses installLocked when a frame leaves the pool (or
// before its bytes change).
func (p *Pool) forgetLocked(f *frame) {
	p.bytes -= f.bytes
	p.tenantLocked(f.tenant).bytes -= f.bytes
}

// Acquire returns the block with one pin held on its frame. The matrix is
// the frame's own, shared with every other acquirer: read it, never write
// it (see the package doc). A cached block is a hit; otherwise the caller
// becomes the read leader (concurrent acquirers of the same block coalesce
// onto its read and count as hits). Release the pin with Unpin when the
// block leaves the query's working set.
func (p *Pool) Acquire(array string, r, c int64) (*blas.Matrix, error) {
	return p.acquire("", array, r, c)
}

func (p *Pool) acquire(tenant, array string, r, c int64) (*blas.Matrix, error) {
	id := prog.BlockID{Array: array, R: r, C: c}
	p.mu.Lock()
	if f := p.frames[id]; f != nil {
		f.pins++
		p.unlinkLocked(f)
		if ch := f.loading; ch != nil {
			// Coalesce onto the in-flight leader read.
			p.mu.Unlock()
			<-ch
			p.mu.Lock()
			if f.err != nil {
				err := f.err
				p.mu.Unlock()
				return nil, err
			}
		}
		p.hits++
		p.tenantLocked(tenant).hits++
		blk := f.blk
		p.mu.Unlock()
		return blk, nil
	}

	// Miss: install a loading frame and become the leader.
	f := &frame{id: id, tenant: tenant, pins: 1, loading: make(chan struct{})}
	p.frames[id] = f
	p.misses++
	p.tenantLocked(tenant).misses++
	p.mu.Unlock()

	blk, err := p.store.ReadBlock(array, r, c)

	p.mu.Lock()
	if err != nil {
		// Dead frame: unregister so future acquires retry; waiting
		// followers observe the error through their frame pointer.
		f.err = err
		delete(p.frames, id)
		close(f.loading)
		p.mu.Unlock()
		return nil, err
	}
	f.blk = blk
	f.bytes = int64(len(blk.Data)) * 8
	p.installLocked(f)
	close(f.loading)
	f.loading = nil
	over := p.overCapLocked()
	p.mu.Unlock()
	if over {
		p.evictToCap()
	}
	return blk, nil
}

// read returns the block's current value without pinning it or installing a
// frame: a resident frame's matrix is a hit, anything else a miss read
// straight from the store that leaves the pool as it was. A block with no
// resident frame is current in the store (every write-back keeps its frame
// until the store has the data), so a miss never returns stale data.
func (p *Pool) read(tenant, array string, r, c int64) (*blas.Matrix, error) {
	p.mu.Lock()
	tc := p.tenantLocked(tenant)
	if f := p.frames[prog.BlockID{Array: array, R: r, C: c}]; f != nil && f.loading == nil {
		p.hits++
		tc.hits++
		blk := f.blk
		p.mu.Unlock()
		return blk, nil
	}
	p.misses++
	tc.misses++
	p.mu.Unlock()
	return p.store.ReadBlock(array, r, c)
}

// notePeakLocked records the post-eviction cached-byte high-water mark.
func (p *Pool) notePeakLocked() {
	if p.bytes > p.peakBytes {
		p.peakBytes = p.bytes
	}
}

// overCapLocked ends an operation that added cached bytes: it reports
// whether the pool is over capacity with a victim to evict, in which case
// the caller releases p.mu and runs evictToCap; otherwise it records the
// residency peak itself.
func (p *Pool) overCapLocked() bool {
	if p.capBytes > 0 && p.bytes > p.capBytes && p.lru.Len() > 0 {
		return true
	}
	p.notePeakLocked()
	return false
}

// Put installs a written block (the pool keeps its own copy, marked dirty
// for deferred write-back) with one pin held on the frame. Later Acquires
// of the block hit the new value.
func (p *Pool) Put(array string, r, c int64, blk *blas.Matrix) error {
	return p.put("", array, r, c, blk)
}

func (p *Pool) put(tenant, array string, r, c int64, blk *blas.Matrix) error {
	cl := blk.Clone() // copy outside the lock; the caller keeps mutating blk
	id := prog.BlockID{Array: array, R: r, C: c}
	p.mu.Lock()
	f := p.frames[id]
	for f != nil && f.loading != nil {
		// A miss read is in flight; wait for it so we never race its
		// installation (the plan's dependence edges order same-query
		// accesses, but another query may be reading this block).
		ch := f.loading
		p.mu.Unlock()
		<-ch
		p.mu.Lock()
		f = p.frames[id]
	}
	if f == nil {
		f = &frame{id: id, tenant: tenant}
		p.frames[id] = f
	} else {
		// Re-written block: its bytes move to the writing tenant before
		// they are re-accounted.
		p.forgetLocked(f)
		f.tenant = tenant
	}
	f.blk = cl
	f.bytes = int64(len(f.blk.Data)) * 8
	p.installLocked(f)
	f.dirty = true
	f.pins++
	p.unlinkLocked(f)
	p.puts++
	over := p.overCapLocked()
	p.mu.Unlock()
	if over {
		p.evictToCap()
	}
	return nil
}

// Unpin releases n pins on the block's frame; a frame whose last pin
// releases joins the eviction order and becomes evictable.
func (p *Pool) Unpin(array string, r, c int64, n int) {
	p.mu.Lock()
	f := p.frames[prog.BlockID{Array: array, R: r, C: c}]
	if f == nil {
		p.mu.Unlock()
		return
	}
	f.pins -= n
	if f.pins < 0 {
		f.pins = 0
	}
	over := false
	if f.pins == 0 && f.blk != nil && f.loading == nil && f.elem == nil {
		f.elem = p.lru.PushBack(f)
		over = p.overCapLocked()
	}
	p.mu.Unlock()
	if over {
		p.evictToCap()
	}
}

// ReleaseBlock retires one already-consumed block from the pool: its dirty
// data is written back to storage and, when no pins remain, the frame is
// dropped so its bytes stop competing for capacity. The streaming result
// path calls it per delivered block (bounded retention) — a streamed
// result far larger than the pool never accumulates resident frames. A
// pinned or still-loading frame keeps its data (only the write-back
// happens) and ages out through the LRU order instead; an absent
// frame is a no-op. A release that meets an in-flight write-back of the
// same frame (another release's — a stream and InvalidateArray retiring
// one output block — or an eviction's) waits for it, so the block is
// written once and is in storage when either returns.
func (p *Pool) ReleaseBlock(array string, r, c int64) error {
	id := prog.BlockID{Array: array, R: r, C: c}
	p.mu.Lock()
	f, ok := p.frames[id]
	for ok && f.writing != nil {
		ch := f.writing
		p.mu.Unlock()
		<-ch
		p.mu.Lock()
		f, ok = p.frames[id]
	}
	if !ok || f.loading != nil {
		p.mu.Unlock()
		return nil
	}
	if f.dirty {
		// Write back outside the pool lock: release runs once per
		// delivered block on the streaming path, and holding p.mu across a
		// potentially networked WriteBlock would stall every concurrent
		// pool operation for its duration.
		blk := p.beginWriteLocked(f)
		p.mu.Unlock()
		start := time.Now()
		err := p.store.WriteBlock(array, r, c, blk)
		took := time.Since(start)
		p.mu.Lock()
		p.endWriteLocked(f, blk, err)
		p.releaseWriteTime += took
		stale := p.frames[id] != f
		if err != nil || f.dirty {
			// Write-back failed, or the frame was re-dirtied while the lock
			// was down: keep the data and let it age out through the LRU
			// order (mirrors Unpin's re-admission).
			if !stale && f.pins == 0 && f.blk != nil && f.elem == nil {
				f.elem = p.lru.PushBack(f)
			}
			p.mu.Unlock()
			if err != nil {
				return fmt.Errorf("buffer: release %s: %w", id, err)
			}
			return nil
		}
		if stale {
			p.mu.Unlock()
			return nil
		}
	}
	if f.pins > 0 {
		p.mu.Unlock()
		return nil
	}
	p.unlinkLocked(f)
	delete(p.frames, id)
	p.forgetLocked(f)
	p.mu.Unlock()
	return nil
}

// beginWriteLocked starts a write-back of f's current block, which the
// caller writes with p.mu released and then settles with endWriteLocked.
// A temporary pin keeps the frame resident and out of the eviction order
// meanwhile, and f.writing lets others wait for the write.
func (p *Pool) beginWriteLocked(f *frame) *blas.Matrix {
	f.pins++
	f.writing = make(chan struct{})
	p.unlinkLocked(f)
	return f.blk
}

// endWriteLocked settles a write-back of blk begun by beginWriteLocked: it
// drops the temporary pin, wakes the frame's waiters and, when the write
// succeeded and no re-Put swapped the frame's block meanwhile, marks the
// frame clean (a re-Put's fresh data must stay dirty).
func (p *Pool) endWriteLocked(f *frame, blk *blas.Matrix, err error) {
	f.pins--
	close(f.writing)
	f.writing = nil
	if err == nil && f.blk == blk {
		f.dirty = false
		p.writebacks++
	}
}

// evictToCap takes p.mu and evicts unpinned frames in LRU order until
// cached bytes fit the capacity, then records the residency peak. A clean
// victim leaves at once. A dirty one is written back with p.mu released,
// as ReleaseBlock does, so a slow or networked store stalls the caller
// whose operation pushed the pool over capacity and no other pool
// operation. When the write settles the victim leaves, unless it was
// re-pinned meanwhile (it stays resident until its Unpin re-admits it) or
// re-dirtied by a re-Put (it rejoins the eviction order). A write-back
// failure puts the victim back as the next victim (its data must not be
// lost), records the sticky error and ends the pass.
func (p *Pool) evictToCap() {
	p.mu.Lock()
	for p.capBytes > 0 && p.bytes > p.capBytes {
		e := p.lru.Front()
		if e == nil {
			break // everything pinned or in flight: soft bound, admit the overage
		}
		f := e.Value.(*frame)
		if f.dirty {
			blk := p.beginWriteLocked(f)
			p.mu.Unlock()
			start := time.Now()
			err := p.store.WriteBlock(f.id.Array, f.id.R, f.id.C, blk)
			took := time.Since(start)
			p.mu.Lock()
			p.endWriteLocked(f, blk, err)
			p.evictWriteTime += took
			if err != nil {
				// The operation that pushed the pool over capacity still
				// succeeds (failing it would leak its pin, and no data is
				// lost), so the error is sticky: Stats.EvictErr and the
				// next Flush surface it.
				if p.evictErr == nil {
					p.evictErr = fmt.Errorf("buffer: write-back %s: %w", f.id, err)
				}
				if f.pins == 0 {
					f.elem = p.lru.PushFront(f)
				}
				break
			}
			if f.pins > 0 {
				continue
			}
			if f.dirty {
				f.elem = p.lru.PushBack(f)
				continue
			}
		}
		p.unlinkLocked(f)
		delete(p.frames, f.id)
		p.forgetLocked(f)
		p.evictions++
	}
	p.notePeakLocked()
	p.mu.Unlock()
}

// awaitWritesLocked waits until no frame of the array ("" = any array)
// has a write-back in flight. It releases p.mu while it waits and holds it
// on return, so no further write-back of those frames can begin until the
// caller unlocks.
func (p *Pool) awaitWritesLocked(array string) {
	for {
		var ch chan struct{}
		for id, f := range p.frames {
			if f.writing != nil && (array == "" || id.Array == array) {
				ch = f.writing
				break
			}
		}
		if ch == nil {
			return
		}
		p.mu.Unlock()
		<-ch
		p.mu.Lock()
	}
}

// Flush writes every dirty frame back to storage (queries' outputs become
// durable and readable through the manager). It first waits for in-flight
// write-backs, so none of them can land an older value after the sweep
// wrote a newer one. It also surfaces any sticky eviction write-back
// error.
func (p *Pool) Flush() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.awaitWritesLocked("")
	for _, f := range p.frames {
		if !f.dirty || f.blk == nil {
			continue
		}
		// Flush holds p.mu across write-backs so no new dirty state can
		// race the durability sweep; it runs at shutdown/checkpoint, not
		// on the query path. //riotvet:allow lockio
		if err := p.store.WriteBlock(f.id.Array, f.id.R, f.id.C, f.blk); err != nil {
			return fmt.Errorf("buffer: flush %s: %w", f.id, err)
		}
		f.dirty = false
		p.writebacks++
	}
	err := p.evictErr
	p.evictErr = nil
	return err
}

// InvalidateArray makes one array durable and drops its frames: every
// dirty frame is written back (pinned or not, so callers reading the array
// through storage afterwards always see current data), and unpinned frames
// are evicted. The multi-query server uses it to retire a finished query's
// private output frames so they stop competing with shared inputs for
// capacity. The array's frames are snapshotted under the lock and each is
// retired through ReleaseBlock, so the write-backs run unlocked and one
// query's retirement never stalls another's pool operations. Frames still
// loading are left alone (they are never dirty).
func (p *Pool) InvalidateArray(array string) error {
	p.mu.Lock()
	var ids []prog.BlockID
	for id := range p.frames {
		if id.Array == array {
			ids = append(ids, id)
		}
	}
	p.mu.Unlock()
	for _, id := range ids {
		if err := p.ReleaseBlock(array, id.R, id.C); err != nil {
			return err
		}
	}
	return nil
}

// DiscardBlock drops one block nobody will read again, without writing it
// back: exec announces a transient block dead after the plan's last use of
// it (exec.Engine.OnBlockDead). An unpinned frame leaves the pool; a pinned
// one stays resident but clean, so its later eviction costs nothing. An
// absent or still-loading frame is a no-op.
func (p *Pool) DiscardBlock(array string, r, c int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if f := p.frames[prog.BlockID{Array: array, R: r, C: c}]; f != nil && f.loading == nil {
		p.discardLocked(f)
	}
}

// DiscardArray is DiscardBlock for every frame of one array — for arrays
// about to be deleted (a failed or retired query's outputs) or never read
// again (a finished query's intermediates), where flushing dirty data would
// be wasted I/O. It first waits for the array's in-flight write-backs, so a
// caller that drops the array from storage next never races one of them.
func (p *Pool) DiscardArray(array string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.awaitWritesLocked(array)
	for id, f := range p.frames {
		if id.Array == array && f.loading == nil {
			p.discardLocked(f)
		}
	}
}

// discardLocked cleans f without write-back and drops it unless pinned.
func (p *Pool) discardLocked(f *frame) {
	if f.dirty {
		f.dirty = false
		p.discards++
	}
	if f.pins > 0 {
		return
	}
	p.unlinkLocked(f)
	delete(p.frames, f.id)
	p.forgetLocked(f)
}

// TenantStats is one tenant's slice of the pool counters.
type TenantStats struct {
	// Hits and Misses count the tenant's acquisitions; BytesCached the
	// bytes of frames it installed that are still resident.
	Hits        int64 `json:"hits"`
	Misses      int64 `json:"misses"`
	BytesCached int64 `json:"bytesCached"`
}

// HitRate returns the tenant's hits / (hits + misses), 0 when idle.
func (s TenantStats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// Stats is a snapshot of the pool's counters.
type Stats struct {
	// Hits and Misses count Acquires (and Session.Reads) served from a
	// cached (or in-flight) frame vs. reads that went to storage; Puts
	// counts installed writes.
	Hits, Misses, Puts int64
	// Evictions and Writebacks count capacity evictions and dirty
	// write-backs (eviction-driven plus Flush); Discards counts dirty
	// frames dropped without write-back (DiscardBlock, DiscardArray).
	Evictions, Writebacks, Discards int64
	// BytesCached/BytesCap report occupancy against the soft capacity;
	// Frames/PinnedFrames count resident and currently pinned frames.
	BytesCached, BytesCap int64
	// PeakBytes is the post-eviction cached-byte high-water mark — the
	// steady-state residency peak over the pool's lifetime. A streamed
	// result larger than the pool keeps this at or under BytesCap.
	PeakBytes            int64
	Frames, PinnedFrames int
	// EvictErr surfaces the sticky eviction write-back failure (empty =
	// none): daemons see a failing device before a Flush trips over it.
	EvictErr string
	// EvictWriteTime and ReleaseWriteTime total the time spent in store
	// writes of dirty frames by capacity eviction and by ReleaseBlock
	// (InvalidateArray included); both run with the pool lock released.
	EvictWriteTime, ReleaseWriteTime time.Duration
	// Tenants breaks hits, misses, and residency down per tenant label;
	// acquisitions outside a tenant session land on the anonymous tenant
	// "". Nil only while the pool is untouched.
	Tenants map[string]TenantStats
}

// HitRate returns hits / (hits + misses), 0 when idle.
func (s Stats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// Stats returns a snapshot of the pool's counters.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := Stats{
		Hits: p.hits, Misses: p.misses, Puts: p.puts,
		Evictions: p.evictions, Writebacks: p.writebacks, Discards: p.discards,
		BytesCached: p.bytes, BytesCap: p.capBytes,
		PeakBytes: p.peakBytes,
		Frames:    len(p.frames),

		EvictWriteTime: p.evictWriteTime, ReleaseWriteTime: p.releaseWriteTime,
	}
	if p.evictErr != nil {
		st.EvictErr = p.evictErr.Error()
	}
	for _, f := range p.frames {
		if f.pins > 0 {
			st.PinnedFrames++
		}
	}
	if len(p.tenants) > 0 {
		st.Tenants = make(map[string]TenantStats, len(p.tenants))
		for name, tc := range p.tenants {
			st.Tenants[name] = TenantStats{
				Hits: tc.hits, Misses: tc.misses,
				BytesCached: tc.bytes,
			}
		}
	}
	return st
}

// Session is an array-aliasing, tenant-labeled view of the pool: block
// acquisitions rename arrays through the alias map before touching the
// shared pool, and hits, misses, and installed frames are attributed to
// the session's tenant. The multi-query server gives
// each query a session mapping its written arrays to private namespaced
// names while inputs keep their shared names — that is what makes one
// query's input read a hit for the next, without letting two queries
// collide on outputs. Session implements the same acquisition interface as
// the pool itself.
type Session struct {
	pool   *Pool
	tenant string
	alias  map[string]string
}

// Session creates an aliasing view under the anonymous tenant; arrays
// absent from alias keep their names (shared).
func (p *Pool) Session(alias map[string]string) *Session {
	return p.TenantSession("", alias)
}

// TenantSession creates an aliasing view whose acquisitions are attributed
// to the named tenant.
func (p *Pool) TenantSession(tenant string, alias map[string]string) *Session {
	return &Session{pool: p, tenant: tenant, alias: alias}
}

func (s *Session) resolve(array string) string {
	if phys, ok := s.alias[array]; ok {
		return phys
	}
	return array
}

// Acquire is Pool.Acquire under the session's aliasing and tenant.
func (s *Session) Acquire(array string, r, c int64) (*blas.Matrix, error) {
	return s.pool.acquire(s.tenant, s.resolve(array), r, c)
}

// Read looks at one block under the session's aliasing and tenant without
// pinning it or, on a miss, installing it: the result summary reads a
// finished query's outputs this way, so blocks a stream already released
// do not push other queries' frames out.
func (s *Session) Read(array string, r, c int64) (*blas.Matrix, error) {
	return s.pool.read(s.tenant, s.resolve(array), r, c)
}

// Put is Pool.Put under the session's aliasing and tenant.
func (s *Session) Put(array string, r, c int64, blk *blas.Matrix) error {
	return s.pool.put(s.tenant, s.resolve(array), r, c, blk)
}

// Unpin is Pool.Unpin under the session's aliasing.
func (s *Session) Unpin(array string, r, c int64, n int) {
	s.pool.Unpin(s.resolve(array), r, c, n)
}

// DiscardBlock is Pool.DiscardBlock under the session's aliasing.
func (s *Session) DiscardBlock(array string, r, c int64) {
	s.pool.DiscardBlock(s.resolve(array), r, c)
}
