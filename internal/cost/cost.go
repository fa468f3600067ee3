// Package cost prices plans (§5.4): a lowered timeline's exact I/O
// volumes (bytes and block requests) and peak memory requirement, as
// counted by codegen.Timeline.Account, plus the modeled I/O time. Counting
// is exact for the bound parameters — the concrete-evaluation counterpart
// of the paper's piecewise quasipolynomials (DESIGN.md substitution S3).
package cost

import (
	"riotshare/internal/codegen"
	"riotshare/internal/disk"
)

// Cost is the evaluation of one plan.
type Cost struct {
	// Actual plan I/O (after realized sharing and dead-write elision).
	ReadBytes, WriteBytes int64
	ReadReqs, WriteReqs   int64
	// IOTimeSec is the modeled I/O time.
	IOTimeSec float64
	// PeakMemoryBytes is the peak buffered working set in logical bytes
	// (codegen.Accounting.PeakMemoryBytes).
	PeakMemoryBytes int64
	// PerArray breaks down I/O volumes by array.
	PerArray map[string]ArrayIO
}

// ArrayIO is the per-array I/O volume breakdown.
type ArrayIO = codegen.ArrayIO

// LogicalIOBytes is the plan's total logical I/O volume (reads plus
// writes). It is the disk-model-independent scalar the tiered planner uses
// to rank plans: two plans compare the same under any model whose time is
// monotone in bytes moved, so the greedy tier can score without committing
// to a device profile.
func (c Cost) LogicalIOBytes() int64 {
	return c.ReadBytes + c.WriteBytes
}

// Evaluate prices the plan's lowered timeline: its logical accounting
// (codegen.Timeline.Account) plus the I/O time the disk model gives it.
func Evaluate(tl *codegen.Timeline, model disk.Model) Cost {
	a := tl.Account(nil)
	return Cost{
		ReadBytes: a.ReadBytes, WriteBytes: a.WriteBytes,
		ReadReqs: a.ReadReqs, WriteReqs: a.WriteReqs,
		IOTimeSec:       model.Time(a.ReadBytes, a.WriteBytes, a.ReadReqs, a.WriteReqs),
		PeakMemoryBytes: a.PeakMemoryBytes,
		PerArray:        a.PerArray,
	}
}
