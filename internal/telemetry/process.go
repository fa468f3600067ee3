package telemetry

import (
	"runtime/metrics"
	"syscall"
	"time"
)

// Process counts the work the process itself has done since it started:
// the CPU time the kernel charged it and what the Go runtime allocated
// and collected. Unlike wall time, none of these grows while the process
// waits for a CPU on a busy host.
type Process struct {
	// UserCPU and SystemCPU are the CPU time charged to all of the
	// process's threads in user and kernel mode (getrusage RUSAGE_SELF).
	// runtime/metrics' /cpu/classes/* are not used: they count the wall
	// time of busy Ps, which a descheduled process inflates.
	UserCPU   time.Duration `json:"userCPU"`
	SystemCPU time.Duration `json:"systemCPU"`
	// AllocBytes and AllocObjects total the heap allocations
	// (/gc/heap/allocs:bytes and :objects); GCCycles counts completed GC
	// cycles (/gc/cycles/total:gc-cycles).
	AllocBytes   uint64 `json:"allocBytes"`
	AllocObjects uint64 `json:"allocObjects"`
	GCCycles     uint64 `json:"gcCycles"`
}

// ReadProcess snapshots the calling process's counters. A counter the
// platform cannot read stays zero.
func ReadProcess() Process {
	var p Process
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		p.UserCPU = time.Duration(ru.Utime.Nano())
		p.SystemCPU = time.Duration(ru.Stime.Nano())
	}
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	for i, dst := range []*uint64{&p.AllocBytes, &p.AllocObjects, &p.GCCycles} {
		if s[i].Value.Kind() == metrics.KindUint64 {
			*dst = s[i].Value.Uint64()
		}
	}
	return p
}

// Emit renders the snapshot as counter families named
// <prefix>_process_*, so each daemon exposes them under its own prefix.
func (p Process) Emit(e *Emit, prefix string) {
	const cpuHelp = "CPU time charged to the process (getrusage), by mode."
	e.Counter(prefix+"_process_cpu_seconds_total", cpuHelp, p.UserCPU.Seconds(), L("mode", "user"))
	e.Counter(prefix+"_process_cpu_seconds_total", cpuHelp, p.SystemCPU.Seconds(), L("mode", "system"))
	e.Counter(prefix+"_process_alloc_bytes_total", "Heap bytes allocated by the process.", float64(p.AllocBytes))
	e.Counter(prefix+"_process_alloc_objects_total", "Heap objects allocated by the process.", float64(p.AllocObjects))
	e.Counter(prefix+"_process_gc_cycles_total", "Completed garbage-collection cycles.", float64(p.GCCycles))
}
