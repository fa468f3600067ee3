// policy.go is the pool's replacement policy layer: the eviction order of
// unpinned resident frames lives behind a small Policy interface so the
// pool's pin/write-back machinery is shared by every policy. Two policies
// ship: classic LRU (the original behavior and the default) and a
// scan-resistant segmented LRU (SLRU/2Q-style probation + protected
// segments), under which one huge sequential scan can no longer flush
// every other query's hot working set out of the pool.
package buffer

import (
	"container/list"
	"fmt"
)

// Policy orders the pool's evictable frames. Implementations are not
// thread-safe; the pool calls them under its own lock. Frames enter the
// policy when their last pin releases (add), leave it when re-pinned or
// evicted (remove), and are surrendered for eviction in policy order
// (victim).
type Policy interface {
	// Name identifies the policy in stats and flags ("lru", "segmented").
	Name() string
	// add makes an unpinned resident frame evictable. hot reports that the
	// frame was re-referenced while resident (a pool hit or a re-Put since
	// it last became evictable) — scan-resistant policies promote such
	// frames, one-touch scan frames stay easy to evict.
	add(f *frame, hot bool)
	// remove takes the frame out of the eviction order (it was pinned,
	// evicted, or invalidated). Removing a frame not in the order is a
	// no-op.
	remove(f *frame)
	// victim returns the next frame to evict, nil when none is evictable.
	victim() *frame
	// requeue reinstates a victim whose dirty write-back failed as the
	// next victim again (its data must not be lost, and eviction stops).
	requeue(f *frame)
	// resize tells the policy the pool's byte capacity so segmented
	// policies can size their protected segment (0 = unlimited).
	resize(capBytes int64)
}

// Policy names accepted by ParsePolicy and the -policy flag.
const (
	PolicyLRU       = "lru"
	PolicySegmented = "segmented"
)

// ParsePolicy builds a replacement policy by name. The empty name means
// the default (LRU, the pool's original behavior).
func ParsePolicy(name string) (Policy, error) {
	switch name {
	case "", PolicyLRU:
		return newLRUPolicy(), nil
	case PolicySegmented, "slru":
		return newSegmentedPolicy(defaultProtectedFrac), nil
	default:
		return nil, fmt.Errorf("buffer: unknown policy %q (%s, %s)", name, PolicyLRU, PolicySegmented)
	}
}

// lruPolicy is the original single-list least-recently-used order: frames
// become evictable at the MRU end, victims leave from the LRU end.
type lruPolicy struct {
	order *list.List // front = least recently used = next victim
}

func newLRUPolicy() *lruPolicy {
	return &lruPolicy{order: list.New()}
}

func (p *lruPolicy) Name() string { return PolicyLRU }

func (p *lruPolicy) add(f *frame, hot bool) {
	f.elem = p.order.PushBack(f)
}

func (p *lruPolicy) remove(f *frame) {
	if f.elem != nil {
		p.order.Remove(f.elem)
		f.elem = nil
	}
}

func (p *lruPolicy) victim() *frame {
	e := p.order.Front()
	if e == nil {
		return nil
	}
	return e.Value.(*frame)
}

func (p *lruPolicy) requeue(f *frame) {
	f.elem = p.order.PushFront(f)
}

func (p *lruPolicy) resize(capBytes int64) {}

// defaultProtectedFrac is the share of pool capacity the segmented
// policy's protected segment may hold. The remainder is the probation
// segment a sequential scan churns through.
const defaultProtectedFrac = 0.8

// segment identifies which list a frame sits in under the segmented
// policy.
type segment int8

const (
	segNone segment = iota
	segProbation
	segProtected
)

// segmentedPolicy is a scan-resistant segmented LRU. Frames seen once sit
// in the probation segment; a frame re-referenced while resident is
// promoted to the protected segment when it next becomes evictable.
// Victims come from probation first, so a scan of blocks that are never
// touched twice evicts only its own one-hit-wonder frames while the
// protected hot set survives. The protected segment is capped at a
// fraction of pool capacity; overflow demotes its LRU end back to
// probation's MRU end (one more chance before eviction).
type segmentedPolicy struct {
	probation *list.List // front = next victim
	protected *list.List // front = next demotion
	frac      float64
	capBytes  int64
	protBytes int64
}

func newSegmentedPolicy(frac float64) *segmentedPolicy {
	if frac <= 0 || frac >= 1 {
		frac = defaultProtectedFrac
	}
	return &segmentedPolicy{probation: list.New(), protected: list.New(), frac: frac}
}

func (p *segmentedPolicy) Name() string { return PolicySegmented }

func (p *segmentedPolicy) protCap() int64 {
	if p.capBytes <= 0 {
		return 0 // unlimited pool: nothing is ever evicted, no demotion needed
	}
	return int64(float64(p.capBytes) * p.frac)
}

func (p *segmentedPolicy) add(f *frame, hot bool) {
	if hot || f.seg == segProtected {
		f.seg = segProtected
		f.elem = p.protected.PushBack(f)
		p.protBytes += f.bytes
		p.demoteOverflow()
		return
	}
	f.seg = segProbation
	f.elem = p.probation.PushBack(f)
}

// demoteOverflow moves the protected segment's LRU end to probation's MRU
// end until the protected segment fits its share of capacity.
func (p *segmentedPolicy) demoteOverflow() {
	cap := p.protCap()
	for cap > 0 && p.protBytes > cap {
		e := p.protected.Front()
		if e == nil {
			return
		}
		f := e.Value.(*frame)
		p.protected.Remove(e)
		p.protBytes -= f.bytes
		f.seg = segProbation
		f.elem = p.probation.PushBack(f)
	}
}

func (p *segmentedPolicy) remove(f *frame) {
	if f.elem == nil {
		return
	}
	if f.seg == segProtected {
		p.protected.Remove(f.elem)
		p.protBytes -= f.bytes
	} else {
		p.probation.Remove(f.elem)
	}
	f.elem = nil
}

func (p *segmentedPolicy) victim() *frame {
	if e := p.probation.Front(); e != nil {
		return e.Value.(*frame)
	}
	if e := p.protected.Front(); e != nil {
		return e.Value.(*frame)
	}
	return nil
}

func (p *segmentedPolicy) requeue(f *frame) {
	// Back as the next victim: front of its own segment (probation drains
	// before protected, so a probation frame stays first in line).
	if f.seg == segProtected {
		f.elem = p.protected.PushFront(f)
		p.protBytes += f.bytes
		return
	}
	f.elem = p.probation.PushFront(f)
}

func (p *segmentedPolicy) resize(capBytes int64) {
	p.capBytes = capBytes
	p.demoteOverflow()
}
