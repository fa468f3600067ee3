// Package disk models the storage device: it accounts read and write byte
// volumes exactly and converts them to time with the sustained-rate model
// the paper calibrates in §6 (96 MB/s reads, 60 MB/s writes on their WD
// Caviar Black; we keep those constants so predicted I/O times are
// comparable). A refined per-request-overhead model is also provided, per
// §5.4's remark that such models "can be easily incorporated". It is kept
// as a package of its own because the cost model, the executor and
// internal/bench's paper-figure tests all use it.
package disk

import "sync/atomic"

// MB is 2^20 bytes.
const MB = 1 << 20

// Model converts I/O volumes to estimated seconds.
type Model struct {
	// ReadBytesPerSec and WriteBytesPerSec are sustained transfer rates.
	ReadBytesPerSec  float64
	WriteBytesPerSec float64
	// PerRequestOverhead is added once per block request (0 for the paper's
	// linear model).
	PerRequestOverhead float64
}

// PaperModel returns the rates benchmarked in §6.
func PaperModel() Model {
	return Model{ReadBytesPerSec: 96 * MB, WriteBytesPerSec: 60 * MB}
}

// RefinedModel adds a per-request overhead (seek + rotational estimate) to
// the linear model, for the cost-model ablation.
func RefinedModel(overheadSec float64) Model {
	m := PaperModel()
	m.PerRequestOverhead = overheadSec
	return m
}

// Time returns the modeled seconds for the given volumes and request counts.
func (m Model) Time(readBytes, writeBytes int64, readReqs, writeReqs int64) float64 {
	t := float64(readBytes)/m.ReadBytesPerSec + float64(writeBytes)/m.WriteBytesPerSec
	t += m.PerRequestOverhead * float64(readReqs+writeReqs)
	return t
}

// Stream is one concurrent request stream against the device: a worker's
// or the prefetcher's sequence of block requests. The device is still one
// spindle, so streams share its sustained bandwidth rather than multiply
// it; what concurrency buys is overlap with compute, not more bytes per
// second.
type Stream struct {
	ReadBytes, WriteBytes int64
	ReadReqs, WriteReqs   int64
}

// Add folds another stream's volumes into s.
func (s *Stream) Add(o Stream) {
	s.ReadBytes += o.ReadBytes
	s.WriteBytes += o.WriteBytes
	s.ReadReqs += o.ReadReqs
	s.WriteReqs += o.WriteReqs
}

// ConcurrentTime models n streams issued concurrently: the device serves
// their combined volume at the sustained rates (bandwidth is shared), and
// interleaved request streams still pay the per-request overhead — the
// linear model's device-time lower bound is insensitive to how requests
// are distributed over issuers, which is why the executor's logical
// accounting can stay interleaving-independent.
func (m Model) ConcurrentTime(streams []Stream) float64 {
	var total Stream
	for _, s := range streams {
		total.Add(s)
	}
	return m.Time(total.ReadBytes, total.WriteBytes, total.ReadReqs, total.WriteReqs)
}

// PipelinedTime estimates the wall time of an execution that overlaps the
// device with compute: a pipelined engine hides the shorter of the two
// behind the longer, so the ideal wall clock is their maximum rather than
// their sum (the §5.4-style refinement the parallel executor targets).
func (m Model) PipelinedTime(readBytes, writeBytes, readReqs, writeReqs int64, cpuSec float64) float64 {
	io := m.Time(readBytes, writeBytes, readReqs, writeReqs)
	if cpuSec > io {
		return cpuSec
	}
	return io
}

// Counter accumulates I/O volumes and request counts; safe for concurrent
// use.
type Counter struct {
	readBytes  atomic.Int64
	writeBytes atomic.Int64
	readReqs   atomic.Int64
	writeReqs  atomic.Int64
}

// Read records a read of n bytes.
func (c *Counter) Read(n int64) {
	c.readBytes.Add(n)
	c.readReqs.Add(1)
}

// Write records a write of n bytes.
func (c *Counter) Write(n int64) {
	c.writeBytes.Add(n)
	c.writeReqs.Add(1)
}

// Snapshot returns the accumulated volumes and request counts.
func (c *Counter) Snapshot() (readBytes, writeBytes, readReqs, writeReqs int64) {
	return c.readBytes.Load(), c.writeBytes.Load(), c.readReqs.Load(), c.writeReqs.Load()
}

// Reset zeroes the counter.
func (c *Counter) Reset() {
	c.readBytes.Store(0)
	c.writeBytes.Store(0)
	c.readReqs.Store(0)
	c.writeReqs.Store(0)
}

// Time converts the accumulated volumes using the model.
func (c *Counter) Time(m Model) float64 {
	rb, wb, rr, wr := c.Snapshot()
	return m.Time(rb, wb, rr, wr)
}
