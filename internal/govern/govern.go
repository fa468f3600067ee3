// Package govern is the admission governor of the multi-query service: it
// decides which waiting query runs next on the K execution slots under a
// global memory cap. Where the original admission controller was one FIFO
// queue (a flooding tenant starves everyone behind it), the governor keeps
// one FIFO queue per tenant and serves the queues round-robin, one
// admission per turn — so a tenant submitting thousands of queries cannot
// push another tenant's handful behind its whole backlog.
//
// The memory rule is the original FIFO one, applied to the rotation: a
// queue head that does not fit the memory cap holds the rotation on its
// turn — nothing else is admitted — until releases drain memory down to
// it. Later small plans therefore never starve a waiting big one. A plan
// larger than the cap can never fit and fails at Admit instead.
package govern

import (
	"errors"
	"fmt"
	"sync"
)

// Config sizes the governor.
type Config struct {
	// MaxConcurrent is K, the global concurrently-running query bound
	// (<= 0 = 2).
	MaxConcurrent int
	// GlobalMemBytes caps the combined peak (logical) memory of admitted
	// plans (0 = unlimited). A plan alone exceeding it fails at admission.
	GlobalMemBytes int64
}

// waiter is one query waiting for admission.
type waiter struct {
	peak  int64
	ready chan struct{}
}

// tenantQueue is one tenant's FIFO of waiters plus its running footprint.
type tenantQueue struct {
	name    string
	running int
	memUse  int64
	waiters []*waiter
}

// Governor is the tenant-aware admission controller. The zero value is not
// usable; create one with New.
type Governor struct {
	k      int
	memCap int64

	mu      sync.Mutex
	running int
	memUse  int64
	queues  map[string]*tenantQueue
	ring    []*tenantQueue // tenants with waiters, in rotation order
	next    int            // persistent round-robin pointer into ring
	closed  chan struct{}
}

// New creates a governor.
func New(cfg Config) *Governor {
	k := cfg.MaxConcurrent
	if k <= 0 {
		k = 2
	}
	return &Governor{
		k:      k,
		memCap: cfg.GlobalMemBytes,
		queues: make(map[string]*tenantQueue),
		closed: make(chan struct{}),
	}
}

func (g *Governor) queueLocked(tenant string) *tenantQueue {
	tq := g.queues[tenant]
	if tq == nil {
		tq = &tenantQueue{name: tenant}
		g.queues[tenant] = tq
	}
	return tq
}

// Admit blocks until the query may run: a slot is free, its tenant's
// round-robin turn comes up, and its peak fits the global memory cap. A
// plan that can never fit the cap fails immediately instead of holding the
// rotation forever. Pair every successful Admit with a Release.
func (g *Governor) Admit(tenant string, peak int64) error {
	select {
	case <-g.closed:
		return errors.New("govern: closed")
	default:
	}
	if g.memCap > 0 && peak > g.memCap {
		return fmt.Errorf("govern: plan peak memory %d bytes exceeds the global cap %d", peak, g.memCap)
	}
	w := &waiter{peak: peak, ready: make(chan struct{})}
	g.mu.Lock()
	tq := g.queueLocked(tenant)
	tq.waiters = append(tq.waiters, w)
	if len(tq.waiters) == 1 {
		g.ring = append(g.ring, tq) // joins the rotation at the tail
	}
	g.dispatchLocked()
	g.mu.Unlock()
	select {
	case <-w.ready:
		return nil
	case <-g.closed:
		g.mu.Lock()
		defer g.mu.Unlock()
		select {
		case <-w.ready:
			return nil // the close raced an admission grant
		default:
		}
		for i, qw := range tq.waiters {
			if qw == w {
				tq.waiters = append(tq.waiters[:i], tq.waiters[i+1:]...)
				if len(tq.waiters) == 0 {
					g.unringLocked(tq)
				}
				break
			}
		}
		g.cleanupLocked(tq)
		return errors.New("govern: closed")
	}
}

// Release returns an admitted query's slot and memory and admits whatever
// the rotation now allows.
func (g *Governor) Release(tenant string, peak int64) {
	g.mu.Lock()
	g.running--
	g.memUse -= peak
	if tq := g.queues[tenant]; tq != nil {
		tq.running--
		tq.memUse -= peak
		g.cleanupLocked(tq)
	}
	g.dispatchLocked()
	g.mu.Unlock()
}

// unringLocked removes an emptied tenant queue from the rotation, keeping
// the round-robin pointer on the element that followed it.
func (g *Governor) unringLocked(tq *tenantQueue) {
	for i, q := range g.ring {
		if q == tq {
			g.ring = append(g.ring[:i], g.ring[i+1:]...)
			if i < g.next {
				g.next--
			}
			if len(g.ring) > 0 {
				g.next %= len(g.ring)
			} else {
				g.next = 0
			}
			return
		}
	}
}

// cleanupLocked drops a tenant queue that holds no state worth keeping.
func (g *Governor) cleanupLocked(tq *tenantQueue) {
	if tq.running == 0 && len(tq.waiters) == 0 && tq.memUse == 0 {
		delete(g.queues, tq.name)
	}
}

// dispatchLocked runs the rotation: while a slot is free, the tenant under
// the pointer admits its queue head and the pointer moves on. A head that
// does not fit the memory cap ends the round with the pointer still on it.
func (g *Governor) dispatchLocked() {
	select {
	case <-g.closed:
		return
	default:
	}
	for g.running < g.k && len(g.ring) > 0 {
		g.next %= len(g.ring)
		tq := g.ring[g.next]
		w := tq.waiters[0]
		if g.memCap > 0 && g.memUse+w.peak > g.memCap {
			return // the head holds its turn; releases drain memory toward it
		}
		tq.waiters = tq.waiters[1:]
		g.running++
		g.memUse += w.peak
		tq.running++
		tq.memUse += w.peak
		close(w.ready)
		if len(tq.waiters) == 0 {
			g.unringLocked(tq) // pointer stays on the successor
		} else {
			g.next++
		}
	}
}

// Load reports global occupancy: running queries and total queued waiters.
func (g *Governor) Load() (running, queued int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, tq := range g.queues {
		queued += len(tq.waiters)
	}
	return g.running, queued
}

// TenantLoad is one tenant's occupancy snapshot.
type TenantLoad struct {
	Running  int   `json:"running"`
	Queued   int   `json:"queued"`
	MemBytes int64 `json:"memBytes"`
}

// TenantLoads snapshots per-tenant occupancy for every tenant with queued
// or running queries.
func (g *Governor) TenantLoads() map[string]TenantLoad {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make(map[string]TenantLoad, len(g.queues))
	for name, tq := range g.queues {
		out[name] = TenantLoad{Running: tq.running, Queued: len(tq.waiters), MemBytes: tq.memUse}
	}
	return out
}

// Close fails every current and future Admit with a closed error. Running
// queries are unaffected; their Releases still balance.
func (g *Governor) Close() {
	g.mu.Lock()
	select {
	case <-g.closed:
	default:
		close(g.closed)
	}
	g.mu.Unlock()
}
