package main

import (
	"bytes"
	"encoding/json"
)

// manifest mirrors BENCHMARK.json, the driver's description of this
// benchmark. The committed file is generated with -manifest.
type manifest struct {
	Command    []string           `json:"command"`
	Paths      []string           `json:"paths"`
	RunSeconds int                `json:"run_seconds"`
	Workloads  []manifestWorkload `json:"workloads"`
	EndToEnd   []manifestMetric   `json:"end_to_end"`
	PerLayer   []manifestMetric   `json:"per_layer"`
}

type manifestWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func manifestJSON() []byte {
	m := manifest{
		Command:    []string{"go", "run", "./benchmark"},
		Paths:      []string{"benchmark"},
		RunSeconds: defaultSeconds,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, manifestWorkload{Name: w.name, Why: w.why})
	}
	for _, d := range endToEndMetrics {
		bound := d.bound
		m.EndToEnd = append(m.EndToEnd, manifestMetric{Name: d.name, Unit: d.unit, Better: d.better, Bound: &bound})
	}
	for _, d := range perLayerMetrics {
		m.PerLayer = append(m.PerLayer, manifestMetric{Name: d.name, Unit: d.unit, Better: d.better})
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(m); err != nil {
		panic(err) // plain data; Encode cannot fail
	}
	return buf.Bytes()
}
