package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark's own
// wrappers around that layer's entry points. Spans of one replayed query
// share Query (the id of its root span).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Query  int    `json:"query"`
	Name   string `json:"name"`
	// Start and End are nanoseconds since the recorder was created.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
}

func (s span) duration() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory until the benchmark ends. The probes
// replay queries on one goroutine, so the innermost open span is the
// parent of the next one; the mutex only guards against a layer calling
// back from a goroutine of its own.
type recorder struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span
	open  []int // stack of open span ids
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span under the innermost open one.
func (r *recorder) begin(name string) int {
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans)
	s := span{ID: id, Parent: -1, Query: id, Name: name, Start: now}
	if n := len(r.open); n > 0 {
		s.Parent = r.open[n-1]
		s.Query = r.spans[s.Parent].Query
	}
	r.spans = append(r.spans, s)
	r.open = append(r.open, id)
	return id
}

// end closes span id (and anything left open inside it).
func (r *recorder) end(id int) {
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id].End = now
	for n := len(r.open); n > 0; n = len(r.open) {
		top := r.open[n-1]
		r.open = r.open[:n-1]
		if top == id {
			break
		}
	}
}

func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// dump writes the spans as JSON.
func (r *recorder) dump(path string) error {
	buf, err := json.Marshal(r.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}

// selfTimes returns, per span id, the span's duration minus the part of
// its interval its child spans cover. Children may overlap one another (a
// layer that fans out); the covered part is the union of their intervals,
// clipped to the parent.
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	out := make([]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < reach {
				lo = reach
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[s.ID] = time.Duration(s.End - s.Start - covered)
	}
	return out
}
