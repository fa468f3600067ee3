package telemetry

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Span is one timed phase of a query, forming a tree. Spans are built
// by the single goroutine executing the query (phases are sequential)
// and must not be mutated once published as a completed trace. A nil *Span
// is a valid no-op, so tracing can be disabled by passing nil roots.
type Span struct {
	// Name identifies the phase, e.g. "planning" or "exec".
	Name string `json:"name"`
	// StartUnixNano is the wall-clock start in Unix nanoseconds.
	StartUnixNano int64 `json:"start_unix_nano"`
	// DurationNanos is the span length; 0 until End is called.
	DurationNanos int64 `json:"duration_nanos"`
	// Annotations carries small key=value details (byte counts, cache
	// verdicts) attached during the span.
	Annotations map[string]string `json:"annotations,omitempty"`
	// Children are sub-phases in execution order.
	Children []*Span `json:"children,omitempty"`

	start time.Time
}

// StartSpan opens a new root span.
func StartSpan(name string) *Span {
	now := time.Now()
	return &Span{Name: name, StartUnixNano: now.UnixNano(), start: now}
}

// Child opens and attaches a sub-span. Returns nil on a nil receiver.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	c := StartSpan(name)
	s.Children = append(s.Children, c)
	return c
}

// AttachChild adds a pre-built child span (used when a lower layer
// reports timings after the fact, e.g. per-stage exec durations).
func (s *Span) AttachChild(c *Span) {
	if s == nil || c == nil {
		return
	}
	s.Children = append(s.Children, c)
}

// End closes the span, fixing its duration.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.DurationNanos = time.Since(s.start).Nanoseconds()
}

// EndWith closes the span with an explicit duration (for spans whose
// timing was measured elsewhere).
func (s *Span) EndWith(d time.Duration) {
	if s == nil {
		return
	}
	s.DurationNanos = d.Nanoseconds()
}

// Annotate attaches a key=value detail to the span.
func (s *Span) Annotate(key, value string) {
	if s == nil {
		return
	}
	if s.Annotations == nil {
		s.Annotations = map[string]string{}
	}
	s.Annotations[key] = value
}

// Duration returns the recorded span duration.
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	return time.Duration(s.DurationNanos)
}

// Render pretty-prints the span tree, one line per span, indented by
// depth, with durations and annotations. Used by the riotshared trace
// subcommand.
func (s *Span) Render(w *strings.Builder, depth int) {
	if s == nil {
		return
	}
	w.WriteString(strings.Repeat("  ", depth))
	fmt.Fprintf(w, "%-24s %12s", s.Name, time.Duration(s.DurationNanos).Round(time.Microsecond))
	if len(s.Annotations) > 0 {
		keys := make([]string, 0, len(s.Annotations))
		for k := range s.Annotations {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(w, "  %s=%s", k, s.Annotations[k])
		}
	}
	w.WriteByte('\n')
	for _, c := range s.Children {
		c.Render(w, depth+1)
	}
}

// Trace is a completed span tree for one query: the JSON body of the
// server's GET /trace?id=.
type Trace struct {
	// QueryID is the server-assigned query identifier.
	QueryID string `json:"query_id"`
	// Root is the top-level query span.
	Root *Span `json:"root"`
}
