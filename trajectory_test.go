package riotshare_test

import (
	"bufio"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// trajectoryEntry is one line of docs/benchmark-trajectory.jsonl: one PR's
// paired parent/change medians under the benchmark of record.
type trajectoryEntry struct {
	PR    int     `json:"pr"`
	Kind  string  `json:"kind"`
	Claim *string `json:"claim"`
	// Pairs counts the alternating parent/change runs per workload.
	Pairs map[string]int `json:"pairs"`
	// Medians is keyed "<workload>/<metric>".
	Medians map[string]struct {
		Parent *float64 `json:"parent"`
		Change *float64 `json:"change"`
		Unit   string   `json:"unit"`
	} `json:"medians"`
}

// TestBenchmarkTrajectory keeps the committed trajectory consistent with
// BENCHMARK.json: every workload and metric it names is one the benchmark
// declares (with the declared unit), PR numbers strictly increase, and a
// claim is null or names a recorded workload/metric.
func TestBenchmarkTrajectory(t *testing.T) {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var manifest struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &manifest); err != nil {
		t.Fatal(err)
	}
	workloads := map[string]bool{}
	for _, w := range manifest.Workloads {
		workloads[w.Name] = true
	}
	units := map[string]string{}
	for _, m := range append(manifest.EndToEnd, manifest.PerLayer...) {
		units[m.Name] = m.Unit
	}

	f, err := os.Open("docs/benchmark-trajectory.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	lastPR, lines := 0, 0
	for n := 1; sc.Scan(); n++ {
		var e trajectoryEntry
		dec := json.NewDecoder(strings.NewReader(sc.Text()))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&e); err != nil {
			t.Fatalf("line %d: %v", n, err)
		}
		lines++
		if e.PR <= lastPR {
			t.Errorf("line %d: pr %d does not follow pr %d", n, e.PR, lastPR)
		}
		lastPR = e.PR
		if e.Kind == "" {
			t.Errorf("line %d: kind is empty", n)
		}
		if len(e.Pairs) == 0 || len(e.Medians) == 0 {
			t.Errorf("line %d: no pairs or no medians", n)
		}
		for w, pairs := range e.Pairs {
			if !workloads[w] {
				t.Errorf("line %d: pairs names workload %q, not in BENCHMARK.json", n, w)
			}
			if pairs < 1 {
				t.Errorf("line %d: %s has %d pairs", n, w, pairs)
			}
		}
		for key, m := range e.Medians {
			w, name, ok := strings.Cut(key, "/")
			unit, known := units[name]
			switch {
			case !ok || !workloads[w]:
				t.Errorf("line %d: median %q does not name a BENCHMARK.json workload", n, key)
			case e.Pairs[w] == 0:
				t.Errorf("line %d: median %q has no pairs recorded for %s", n, key, w)
			case !known:
				t.Errorf("line %d: median %q names a metric not in BENCHMARK.json", n, key)
			case m.Unit != unit:
				t.Errorf("line %d: median %q unit %q, BENCHMARK.json says %q", n, key, m.Unit, unit)
			case m.Parent == nil || m.Change == nil:
				t.Errorf("line %d: median %q lacks a parent or change value", n, key)
			}
		}
		if e.Claim != nil {
			if _, ok := e.Medians[*e.Claim]; !ok {
				t.Errorf("line %d: claim %q is not a recorded workload/metric", n, *e.Claim)
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines == 0 {
		t.Fatal("docs/benchmark-trajectory.jsonl has no entries")
	}
}
