// Package disk models the storage device: it converts exact read and write
// volumes to time with the sustained-rate model the paper calibrates in §6
// (96 MB/s reads, 60 MB/s writes on their WD Caviar Black; we keep those
// constants so predicted I/O times are comparable). A refined
// per-request-overhead model is also provided, per §5.4's remark that such
// models "can be easily incorporated". It is kept as a package of its own
// because the cost model, the executor and internal/bench's paper-figure
// tests all use it.
package disk

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
