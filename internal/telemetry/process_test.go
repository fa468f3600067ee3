package telemetry

import (
	"runtime"
	"testing"
)

var processSink [][]byte

// ReadProcess counts allocations and GC cycles as they happen, and CPU
// time the process has been charged.
func TestReadProcessCountsWork(t *testing.T) {
	before := ReadProcess()
	for i := 0; i < 1000; i++ {
		processSink = append(processSink, make([]byte, 1024))
	}
	processSink = nil
	runtime.GC()
	after := ReadProcess()
	if after.AllocObjects < before.AllocObjects+1000 || after.AllocBytes < before.AllocBytes+1000*1024 {
		t.Errorf("1000 allocations of 1 KiB: objects %d → %d, bytes %d → %d",
			before.AllocObjects, after.AllocObjects, before.AllocBytes, after.AllocBytes)
	}
	if after.GCCycles <= before.GCCycles {
		t.Errorf("runtime.GC: cycles %d → %d", before.GCCycles, after.GCCycles)
	}
	if after.UserCPU+after.SystemCPU <= 0 || after.UserCPU < before.UserCPU || after.SystemCPU < before.SystemCPU {
		t.Errorf("CPU time %v+%v → %v+%v", before.UserCPU, before.SystemCPU, after.UserCPU, after.SystemCPU)
	}
}
