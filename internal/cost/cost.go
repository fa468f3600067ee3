// Package cost evaluates plans (§5.4): exact I/O volumes (bytes and block
// requests), the modeled I/O time, and the peak memory requirement of a
// lowered timeline. Counting is exact for the bound parameters — the
// concrete-evaluation counterpart of the paper's piecewise
// quasipolynomials (DESIGN.md substitution S3).
package cost

import (
	"riotshare/internal/codegen"
	"riotshare/internal/disk"
	"riotshare/internal/prog"
)

// Cost is the evaluation of one plan.
type Cost struct {
	// Actual plan I/O (after realized sharing and dead-write elision).
	ReadBytes, WriteBytes int64
	ReadReqs, WriteReqs   int64
	// IOTimeSec is the modeled I/O time.
	IOTimeSec float64
	// PeakMemoryBytes is the maximum over time of the buffered working set
	// (blocks accessed by the running instance plus blocks held for reuse),
	// in logical bytes (prog.Array.LogicalBlockBytes), not the physical
	// bytes a buffer.Pool's capacity counts.
	PeakMemoryBytes int64
	// PerArray breaks down I/O volumes by array.
	PerArray map[string]ArrayIO
}

// ArrayIO is the per-array I/O volume breakdown.
type ArrayIO struct {
	ReadBytes, WriteBytes int64
}

// LogicalIOBytes is the plan's total logical I/O volume (reads plus
// writes). It is the disk-model-independent scalar the tiered planner uses
// to rank plans: two plans compare the same under any model whose time is
// monotone in bytes moved, so the greedy tier can score without committing
// to a device profile.
func (c Cost) LogicalIOBytes() int64 {
	return c.ReadBytes + c.WriteBytes
}

// Evaluate computes the plan cost from its lowered timeline.
func Evaluate(tl *codegen.Timeline, model disk.Model) Cost {
	c := Cost{PerArray: make(map[string]ArrayIO)}
	p := tl.Prog

	// Hold intervals per event; holds of the same block overlapping an
	// instant count once (they are the same buffered copy).
	type holdIv struct {
		key        string
		bytes      int64
		start, end int
	}
	holds := make([]holdIv, 0, len(tl.Holds))
	for _, h := range tl.Holds {
		arr := p.Arrays[h.Array]
		holds = append(holds, holdIv{
			key:   codegen.BlockKey(h.Array, h.R, h.C),
			bytes: arr.LogicalBlockBytes,
			start: h.StartEvent, end: h.EndEvent,
		})
	}

	for i, ev := range tl.Events {
		working := make(map[string]int64) // block key -> bytes
		readDone := make(map[string]bool) // block key -> physical read already counted
		for ai, ac := range ev.St.Accesses {
			action := tl.Actions[i][ai]
			if action == codegen.Inactive {
				continue
			}
			arr := p.Arrays[ac.Array]
			r, col := ac.BlockAt(ev.X, tl.Params)
			key := codegen.BlockKey(ac.Array, r, col)
			working[key] = arr.LogicalBlockBytes
			switch {
			case ac.Type == prog.Read && action == codegen.DoIO:
				if !readDone[key] {
					readDone[key] = true
					c.ReadBytes += arr.LogicalBlockBytes
					c.ReadReqs++
					pa := c.PerArray[ac.Array]
					pa.ReadBytes += arr.LogicalBlockBytes
					c.PerArray[ac.Array] = pa
				}
			case ac.Type == prog.Write && action == codegen.DoIO:
				c.WriteBytes += arr.LogicalBlockBytes
				c.WriteReqs++
				pa := c.PerArray[ac.Array]
				pa.WriteBytes += arr.LogicalBlockBytes
				c.PerArray[ac.Array] = pa
			}
		}
		// Memory at this instant: the working set plus all held blocks.
		mem := int64(0)
		seen := make(map[string]bool, len(working))
		for key, b := range working {
			mem += b
			seen[key] = true
		}
		for _, h := range holds {
			if h.start <= i && i <= h.end && !seen[h.key] {
				seen[h.key] = true
				mem += h.bytes
			}
		}
		if mem > c.PeakMemoryBytes {
			c.PeakMemoryBytes = mem
		}
	}
	c.IOTimeSec = model.Time(c.ReadBytes, c.WriteBytes, c.ReadReqs, c.WriteReqs)
	return c
}
