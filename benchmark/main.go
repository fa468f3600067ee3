// Command benchmark is the end-to-end benchmark of record for the riotshare
// serving path: four workloads driven over HTTP against a fresh riotshared
// host each, seven bounded end-to-end metrics, and per-layer metrics from
// the server's public surface plus layer probes. See README.md.
//
//	go run ./benchmark -seed 1                 # every workload, both passes
//	go run ./benchmark -workload hot-shared    # one workload alone
//	go run ./benchmark -repeat 2               # self-check: two sets must agree
//
// The driver of record runs it per workload:
//
//	go run ./benchmark --workload W --seed N --seconds S --trace 0|1
//
// and reads the last line of standard output, one JSON object.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 25

// setUpsPerRun is how many set-ups one run takes the median of.
const setUpsPerRun = 5

func main() {
	var (
		workloadName = flag.String("workload", "", "run one workload (cold-plan, hot-shared, spill-chain, remote-stream) and end with the driver's JSON result line; empty runs all four with both passes")
		seed         = flag.Int64("seed", 1, "workload seed: the request list and the input data are pure functions of it")
		seconds      = flag.Int("seconds", defaultSeconds, "run length: sizes the request count (count = per-workload rate × seconds)")
		trace        = flag.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics of the untraced pass, 1 the per-layer metrics of the traced pass")
		repeat       = flag.Int("repeat", 1, "run this many full sets and check they agree within the benchmark's own bounds")
		manifest     = flag.Bool("manifest", false, "print BENCHMARK.json and exit")
		hostMode     = flag.Bool("host", false, "internal: host one workload's server until stdin closes")
		dir          = flag.String("dir", "", "internal: scratch directory of a -host child")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatalf("unexpected argument %q", flag.Arg(0))
	}
	if *manifest {
		os.Stdout.Write(manifestJSON())
		return
	}
	if *seconds < 1 {
		fatalf("-seconds must be at least 1")
	}
	var w *workload
	if *workloadName != "" {
		if w = workloadByName(*workloadName); w == nil {
			fatalf("unknown workload %q", *workloadName)
		}
	}
	if *hostMode {
		if w == nil || *dir == "" {
			fatalf("-host needs -workload and -dir")
		}
		if err := runHost(w, *seed, *dir); err != nil {
			fatalf("host %s: %v", w.name, err)
		}
		return
	}
	// Everything the benchmark writes lives under benchmark/out of the
	// checkout it was started in.
	outDir := filepath.Join("benchmark", "out")
	var err error
	switch {
	case w != nil:
		err = runContract(w, *seed, *seconds, *trace != 0, outDir)
	default:
		err = runAll(*seed, *seconds, *repeat, outDir)
	}
	if err != nil {
		fatalf("%v", err)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(1)
}
