// Package buffer is a capacity-bounded, sharing-aware buffer pool in front
// of the storage manager. It extends the paper's intra-program I/O sharing
// across concurrent queries: a block read by one query stays cached (one
// pristine frame per block) and is a memory hit for every later acquisition
// by any query over the same pool, until eviction reclaims it.
//
// Frames carry ref-counted pins driven by each plan's hold intervals (the
// execution engines pin on acquisition and keep one pin per active hold;
// see internal/exec): pinned frames are never evicted, unpinned frames age
// out in replacement-policy order. The policy is pluggable (see policy.go):
// classic LRU, or a scan-resistant segmented LRU under which a sequential
// scan cannot flush other queries' hot working sets. Writes are deferred:
// Put installs a dirty frame which is written back to storage on eviction
// or Flush, so repeated writes to one block (accumulator chains) reach disk
// once.
//
// The pool is tenant-aware: sessions carry a tenant label, frames are
// attributed to the tenant that installed them, and optional per-tenant
// byte quotas bound how much of the one shared pool a single tenant's
// working set may occupy — an over-quota tenant evicts its own frames
// first, so one tenant's flood cannot displace another tenant's residency.
//
// Capacity is a soft bound: when every frame is pinned the pool admits the
// acquisition anyway (refusing would deadlock a running plan) and evicts
// back down as pins release.
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
	"strconv"
	"sync"

	"riotshare/internal/blas"
	"riotshare/internal/storage"
)

// Options configures a pool beyond its storage manager.
type Options struct {
	// CapacityBytes bounds cached bytes (soft; <= 0 = unlimited).
	CapacityBytes int64
	// Policy selects the replacement policy by name ("" or "lru" = LRU,
	// "segmented" = scan-resistant segmented LRU).
	Policy string
	// TenantQuotaBytes optionally bounds the bytes each named tenant's
	// installed frames may occupy inside the shared pool. Tenants absent
	// from the map (and the anonymous tenant "") are bounded only by the
	// pool capacity.
	TenantQuotaBytes map[string]int64
}

// Pool is the shared block cache. It is safe for concurrent use by many
// queries.
type Pool struct {
	store storage.Backend
	// capBytes bounds cached bytes (soft; <= 0 = unlimited).
	capBytes int64

	mu     sync.Mutex
	frames map[string]*frame
	policy Policy
	quotas map[string]int64 // per-tenant byte quotas (missing = unbounded)
	bytes  int64
	// peakBytes is the high-water mark of cached bytes measured after each
	// eviction pass — the pool's steady-state residency peak. A single
	// acquisition can transiently exceed it by one block while eviction
	// runs; the streaming bench gates on this value staying at or under
	// the capacity for results far larger than the pool.
	peakBytes int64
	tenants   map[string]*tenantCounters
	arrays    map[string]int64 // resident bytes per array, for affinity scoring

	hits, misses, puts    int64
	evictions, writebacks int64
	evictErr              error // sticky write-back failure from capacity eviction
}

// tenantCounters aggregates one tenant's pool activity.
type tenantCounters struct {
	hits, misses int64
	bytes        int64
}

// frame is one cached block.
type frame struct {
	array  string
	r, c   int64
	key    string
	tenant string // installer, for quota accounting

	blk   *blas.Matrix
	bytes int64
	pins  int
	dirty bool
	// hot marks a re-reference while resident (a hit, or a re-Put); the
	// replacement policy reads it when the frame next becomes evictable.
	hot bool
	// elem/seg are owned by the replacement policy; elem is non-nil
	// exactly while the frame is unpinned and resident (evictable).
	elem *list.Element
	seg  segment
	// loading is non-nil while the leader's miss read is in flight;
	// followers wait on it instead of issuing a duplicate read.
	loading chan struct{}
	err     error
}

// NewPool creates a pool over the manager with the given soft capacity in
// bytes (<= 0 = unlimited) and the default LRU policy.
func NewPool(store storage.Backend, capacityBytes int64) *Pool {
	p, err := NewPoolOptions(store, Options{CapacityBytes: capacityBytes})
	if err != nil { // unreachable: the default policy always parses
		panic(err)
	}
	return p
}

// NewPoolOptions creates a pool with an explicit replacement policy and
// optional per-tenant quotas.
func NewPoolOptions(store storage.Backend, opt Options) (*Pool, error) {
	pol, err := ParsePolicy(opt.Policy)
	if err != nil {
		return nil, err
	}
	pol.resize(opt.CapacityBytes)
	quotas := make(map[string]int64, len(opt.TenantQuotaBytes))
	for t, q := range opt.TenantQuotaBytes {
		if q > 0 {
			quotas[t] = q
		}
	}
	return &Pool{
		store:    store,
		capBytes: opt.CapacityBytes,
		frames:   make(map[string]*frame),
		policy:   pol,
		quotas:   quotas,
		tenants:  make(map[string]*tenantCounters),
		arrays:   make(map[string]int64),
	}, nil
}

// appendKey appends the frame key "array[r,c]" to b.
func appendKey(b []byte, array string, r, c int64) []byte {
	b = append(b, array...)
	b = append(b, '[')
	b = strconv.AppendInt(b, r, 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, c, 10)
	return append(b, ']')
}

func poolKey(array string, r, c int64) string {
	return string(appendKey(nil, array, r, c))
}

// frameLocked looks a block's frame up without allocating its key (the
// bytes stay on the stack and a map index converts them in place), so the
// hit path allocates nothing; nil when the block has no frame.
func (p *Pool) frameLocked(array string, r, c int64) *frame {
	var stack [64]byte
	return p.frames[string(appendKey(stack[:0], array, r, c))]
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
	p.arrays[f.array] += f.bytes
	p.tenantLocked(f.tenant).bytes += f.bytes
}

// forgetLocked reverses installLocked when a frame leaves the pool (or
// before its bytes change).
func (p *Pool) forgetLocked(f *frame) {
	p.bytes -= f.bytes
	if b := p.arrays[f.array] - f.bytes; b > 0 {
		p.arrays[f.array] = b
	} else {
		delete(p.arrays, f.array)
	}
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
	p.mu.Lock()
	if f := p.frameLocked(array, r, c); f != nil {
		f.pins++
		f.hot = true
		p.policy.remove(f)
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
	key := poolKey(array, r, c)
	f := &frame{array: array, r: r, c: c, key: key, tenant: tenant, pins: 1, loading: make(chan struct{})}
	p.frames[key] = f
	p.misses++
	p.tenantLocked(tenant).misses++
	p.mu.Unlock()

	blk, err := p.store.ReadBlock(array, r, c)

	p.mu.Lock()
	if err != nil {
		// Dead frame: unregister so future acquires retry; waiting
		// followers observe the error through their frame pointer.
		f.err = err
		delete(p.frames, key)
		close(f.loading)
		p.mu.Unlock()
		return nil, err
	}
	f.blk = blk
	f.bytes = int64(len(blk.Data)) * 8
	p.installLocked(f)
	close(f.loading)
	f.loading = nil
	p.noteEvictErr(p.evictToCapLocked())
	p.notePeakLocked()
	p.mu.Unlock()
	return blk, nil
}

// notePeakLocked records the post-eviction cached-byte high-water mark.
func (p *Pool) notePeakLocked() {
	if p.bytes > p.peakBytes {
		p.peakBytes = p.bytes
	}
}

// noteEvictErr records a write-back failure from capacity eviction. The
// acquisition that triggered it still succeeded (the victim was
// re-inserted, no data lost), so the error is sticky and surfaced by
// Stats.EvictErr and the next Flush instead of failing the caller — which
// would leak its pin.
func (p *Pool) noteEvictErr(err error) {
	if err != nil && p.evictErr == nil {
		p.evictErr = err
	}
}

// Put installs a written block (the pool keeps its own copy, marked dirty
// for deferred write-back) with one pin held on the frame. Later Acquires
// of the block hit the new value.
func (p *Pool) Put(array string, r, c int64, blk *blas.Matrix) error {
	return p.put("", array, r, c, blk)
}

func (p *Pool) put(tenant, array string, r, c int64, blk *blas.Matrix) error {
	cl := blk.Clone() // copy outside the lock; the caller keeps mutating blk
	key := poolKey(array, r, c)
	p.mu.Lock()
	f := p.frames[key]
	for f != nil && f.loading != nil {
		// A miss read is in flight; wait for it so we never race its
		// installation (the plan's dependence edges order same-query
		// accesses, but another query may be reading this block).
		ch := f.loading
		p.mu.Unlock()
		<-ch
		p.mu.Lock()
		f = p.frames[key]
	}
	if f == nil {
		f = &frame{array: array, r: r, c: c, key: key, tenant: tenant}
		p.frames[key] = f
	} else {
		// Re-written block: a re-reference for the policy, and its bytes
		// move to the writing tenant before they are re-accounted.
		f.hot = true
		p.forgetLocked(f)
		f.tenant = tenant
	}
	f.blk = cl
	f.bytes = int64(len(f.blk.Data)) * 8
	p.installLocked(f)
	f.dirty = true
	f.pins++
	p.policy.remove(f)
	p.puts++
	p.noteEvictErr(p.evictToCapLocked())
	p.notePeakLocked()
	p.mu.Unlock()
	return nil
}

// Unpin releases n pins on the block's frame; a frame whose last pin
// releases joins the eviction order and becomes evictable.
func (p *Pool) Unpin(array string, r, c int64, n int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	f := p.frameLocked(array, r, c)
	if f == nil {
		return
	}
	f.pins -= n
	if f.pins < 0 {
		f.pins = 0
	}
	if f.pins == 0 && f.blk != nil && f.loading == nil && f.elem == nil {
		p.policy.add(f, f.hot)
		f.hot = false
		p.noteEvictErr(p.evictToCapLocked())
		p.notePeakLocked()
	}
}

// ReleaseBlock retires one already-consumed block from the pool: its dirty
// data is written back to storage and, when no pins remain, the frame is
// dropped so its bytes stop competing for capacity. The streaming result
// path calls it per delivered block (bounded retention) — a streamed
// result far larger than the pool never accumulates resident frames. A
// pinned or still-loading frame keeps its data (only the write-back
// happens) and ages out through the normal policy instead; an absent
// frame is a no-op.
func (p *Pool) ReleaseBlock(array string, r, c int64) error {
	key := poolKey(array, r, c)
	p.mu.Lock()
	f, ok := p.frames[key]
	if !ok || f.loading != nil {
		p.mu.Unlock()
		return nil
	}
	if f.dirty {
		// Write back outside the pool lock: release runs once per
		// delivered block on the streaming path, and holding p.mu across a
		// potentially networked WriteBlock would stall every concurrent
		// pool operation for its duration. A temporary pin keeps the frame
		// resident and out of the eviction order while the lock is down.
		blk := f.blk
		f.pins++
		p.policy.remove(f)
		p.mu.Unlock()
		err := p.store.WriteBlock(f.array, f.r, f.c, blk)
		p.mu.Lock()
		f.pins--
		// A concurrent re-Put swaps the frame's block pointer and its
		// fresh data must stay dirty; only the unchanged frame is cleaned.
		if err == nil && f.blk == blk {
			f.dirty = false
			p.writebacks++
		}
		stale := p.frames[key] != f
		if err != nil || f.dirty {
			// Write-back failed, or the frame was re-dirtied while the lock
			// was down: keep the data and let it age out through the normal
			// policy (mirrors Unpin's re-admission).
			if !stale && f.pins == 0 && f.blk != nil && f.elem == nil {
				p.policy.add(f, f.hot)
				f.hot = false
			}
			p.mu.Unlock()
			if err != nil {
				return fmt.Errorf("buffer: release %s: %w", key, err)
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
	p.policy.remove(f)
	delete(p.frames, key)
	p.forgetLocked(f)
	p.mu.Unlock()
	return nil
}

// evictFrameLocked writes one victim back if dirty and drops it. A
// write-back failure re-inserts the victim as the next victim (its data
// must not be lost) and reports the error; eviction stops.
func (p *Pool) evictFrameLocked(f *frame) error {
	p.policy.remove(f)
	if f.dirty {
		// Write-back under p.mu is the documented eviction serialization
		// point (see evictToCapLocked); the victim must leave atomically
		// with its accounting. //riotvet:allow lockio
		if err := p.store.WriteBlock(f.array, f.r, f.c, f.blk); err != nil {
			p.policy.requeue(f)
			return fmt.Errorf("buffer: write-back %s: %w", f.key, err)
		}
		f.dirty = false
		p.writebacks++
	}
	delete(p.frames, f.key)
	p.forgetLocked(f)
	p.evictions++
	return nil
}

// evictToCapLocked evicts unpinned frames in policy order until cached
// bytes fit the capacity and every tenant with a quota fits it, writing
// dirty victims back first. Per-tenant quotas reclaim the over-quota
// tenant's own frames, so one tenant running hot cannot displace another
// tenant's residency. Dirty write-back happens under the pool lock — a
// known serialization point when the pool runs over capacity on slow
// storage; size the pool to keep hot working sets resident.
func (p *Pool) evictToCapLocked() error {
	for p.capBytes > 0 && p.bytes > p.capBytes {
		f := p.policy.victim()
		if f == nil {
			break // everything pinned: soft bound, admit the overage
		}
		if err := p.evictFrameLocked(f); err != nil {
			return err
		}
	}
	// victimWhere walks the eviction order per victim — O(resident
	// frames) under the pool lock. Fine at current pool scales; if quota
	// churn ever shows up in profiles, a per-tenant evictable index makes
	// this O(1) like the capacity path above.
	for tenant, quota := range p.quotas {
		tc := p.tenants[tenant]
		for tc != nil && tc.bytes > quota {
			f := p.policy.victimWhere(func(f *frame) bool { return f.tenant == tenant })
			if f == nil {
				break // the tenant's overage is all pinned: soft bound
			}
			if err := p.evictFrameLocked(f); err != nil {
				return err
			}
		}
	}
	return nil
}

// Flush writes every dirty frame back to storage (queries' outputs become
// durable and readable through the manager). It also surfaces any sticky
// eviction write-back error.
func (p *Pool) Flush() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, f := range p.frames {
		if !f.dirty || f.blk == nil {
			continue
		}
		// Flush holds p.mu across write-backs so no new dirty state can
		// race the durability sweep; it runs at shutdown/checkpoint, not
		// on the query path. //riotvet:allow lockio
		if err := p.store.WriteBlock(f.array, f.r, f.c, f.blk); err != nil {
			return fmt.Errorf("buffer: flush %s: %w", f.key, err)
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
// capacity. Frames still loading are left alone (they are never dirty).
func (p *Pool) InvalidateArray(array string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	for key, f := range p.frames {
		if f.array != array || f.loading != nil {
			continue
		}
		if f.dirty {
			// Retiring a finished query's outputs: the write-back must be
			// atomic with dropping the frame, and runs once per query, off
			// the hot acquire path. //riotvet:allow lockio
			if err := p.store.WriteBlock(f.array, f.r, f.c, f.blk); err != nil {
				return fmt.Errorf("buffer: invalidate %s: %w", f.key, err)
			}
			f.dirty = false
			p.writebacks++
		}
		if f.pins > 0 {
			continue
		}
		p.policy.remove(f)
		delete(p.frames, key)
		p.forgetLocked(f)
	}
	return nil
}

// DiscardArray drops every unpinned frame of one array without write-back
// — for arrays about to be deleted (a failed or retired query's outputs),
// where flushing dirty data would be wasted I/O. Loading frames are
// skipped.
func (p *Pool) DiscardArray(array string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for key, f := range p.frames {
		if f.array != array || f.loading != nil || f.pins > 0 {
			continue
		}
		p.policy.remove(f)
		delete(p.frames, key)
		p.forgetLocked(f)
	}
}

// ResidentArrays snapshots the cached bytes per array. The admission
// governor scores waiting queries' input arrays against one snapshot per
// dispatch round (shared-input affinity batching) — a single pool-lock
// acquisition no matter how many queries are queued.
func (p *Pool) ResidentArrays() map[string]int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	snap := make(map[string]int64, len(p.arrays))
	for a, b := range p.arrays {
		snap[a] = b
	}
	return snap
}

// TenantStats is one tenant's slice of the pool counters.
type TenantStats struct {
	// Hits and Misses count the tenant's acquisitions; BytesCached the
	// bytes of frames it installed that are still resident; QuotaBytes its
	// configured quota (0 = unbounded).
	Hits        int64 `json:"hits"`
	Misses      int64 `json:"misses"`
	BytesCached int64 `json:"bytesCached"`
	QuotaBytes  int64 `json:"quotaBytes,omitempty"`
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
	// Hits and Misses count Acquires served from a cached (or in-flight)
	// frame vs. leader reads that went to storage; Puts counts installed
	// writes.
	Hits, Misses, Puts int64
	// Evictions and Writebacks count policy evictions and dirty
	// write-backs (eviction-driven plus Flush).
	Evictions, Writebacks int64
	// BytesCached/BytesCap report occupancy against the soft capacity;
	// Frames/PinnedFrames count resident and currently pinned frames.
	BytesCached, BytesCap int64
	// PeakBytes is the post-eviction cached-byte high-water mark — the
	// steady-state residency peak over the pool's lifetime. A streamed
	// result larger than the pool keeps this at or under BytesCap.
	PeakBytes            int64
	Frames, PinnedFrames int
	// Policy names the replacement policy ("lru", "segmented").
	Policy string
	// EvictErr surfaces the sticky eviction write-back failure (empty =
	// none): daemons see a failing device before a Flush trips over it.
	EvictErr string
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
		Evictions: p.evictions, Writebacks: p.writebacks,
		BytesCached: p.bytes, BytesCap: p.capBytes,
		PeakBytes: p.peakBytes,
		Frames:    len(p.frames),
		Policy:    p.policy.Name(),
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
				QuotaBytes:  p.quotas[name],
			}
		}
	}
	return st
}

// Session is an array-aliasing, tenant-labeled view of the pool: block
// acquisitions rename arrays through the alias map before touching the
// shared pool, and hits, misses, and installed frames are attributed to
// the session's tenant (quota accounting). The multi-query server gives
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

// Put is Pool.Put under the session's aliasing and tenant.
func (s *Session) Put(array string, r, c int64, blk *blas.Matrix) error {
	return s.pool.put(s.tenant, s.resolve(array), r, c, blk)
}

// Unpin is Pool.Unpin under the session's aliasing.
func (s *Session) Unpin(array string, r, c int64, n int) {
	s.pool.Unpin(s.resolve(array), r, c, n)
}
