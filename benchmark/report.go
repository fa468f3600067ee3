package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

// resultLine is the driver's contract: the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// errIncorrect makes the command exit non-zero after the report when any
// request failed, was refused, or missed the oracle.
var errIncorrect = errors.New("requests failed or outputs did not match the oracle")

// untraced runs the end-to-end pass: 2 clients over the whole request list,
// plus the extra set-ups whose median setup_s reports.
func (r *runner) untraced() (*pass, error) {
	extra, err := r.extraSetUps(setUpsPerRun - 1)
	if err != nil {
		return nil, err
	}
	p, err := r.measure(len(r.reqs), clients, false)
	if err != nil {
		return nil, err
	}
	p.setups = append(extra, p.setups...)
	return p, nil
}

// runContract is one driver run: one workload, one pass, a human-readable
// report, and the JSON result line last.
func runContract(w *workload, seed int64, seconds int, traced bool, outDir string) error {
	r, err := newRunner(w, seed, seconds, outDir)
	if err != nil {
		return err
	}
	var (
		res       *results
		defs      []metricDef
		attempted int
		failed    int
		firstErr  error
	)
	if traced {
		t, err := r.traced()
		if err != nil {
			return err
		}
		res, defs = t.layers, perLayerMetrics
		attempted, failed, firstErr = len(t.pass.samples), t.pass.failed(), t.pass.firstError()
	} else {
		p, err := r.untraced()
		if err != nil {
			return err
		}
		res, defs = endToEnd(p), endToEndMetrics
		attempted, failed, firstErr = len(p.samples), p.failed(), p.firstError()
	}
	printResults(os.Stdout, fmt.Sprintf("%s seed=%d requests=%d", w.name, seed, attempted), res)
	if firstErr != nil {
		fmt.Printf("first failure: %v\n", firstErr)
	}
	line := resultLine{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		line.Metrics[d.name] = metricValue{Value: res.by[d.name].v, Unit: d.unit}
	}
	out, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", out)
	if failed > 0 {
		return errIncorrect
	}
	return nil
}

// arrow renders a metric's direction.
func arrow(better string) string {
	if better == "higher" {
		return "↑"
	}
	return "↓"
}

func quantileDetail(used, want float64) string {
	if used == want {
		return ""
	}
	return fmt.Sprintf("p%.4g reported: too few samples for p%.4g", used*100, want*100)
}

// printResults prints every metric by name with its value, unit,
// direction, bound and sample count.
func printResults(w io.Writer, title string, res *results) {
	fmt.Fprintf(w, "== %s ==\n", title)
	for _, name := range res.order {
		v := res.by[name]
		bound := ""
		if v.def.bound > 0 {
			bound = fmt.Sprintf(" bound %.0f%%", v.def.bound*100)
		}
		detail := ""
		if v.detail != "" {
			detail = " (" + v.detail + ")"
		}
		fmt.Fprintf(w, "  %-40s %14.6g %-6s %s%s n=%d%s\n", name, v.v, v.def.unit, arrow(v.def.better), bound, v.n, detail)
	}
}

// set is one full set: per workload the untraced and the traced pass.
type set struct {
	e2e    map[string]*results
	layers map[string]*results
	failed int
}

func runSet(seed int64, seconds int, outDir string) (*set, error) {
	s := &set{e2e: map[string]*results{}, layers: map[string]*results{}}
	for _, w := range workloads {
		r, err := newRunner(w, seed, seconds, outDir)
		if err != nil {
			return nil, err
		}
		p, err := r.untraced()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		s.e2e[w.name] = endToEnd(p)
		s.failed += p.failed()
		printResults(os.Stdout, fmt.Sprintf("%s end-to-end (untraced pass: %d clients, %d requests, seed %d)",
			w.name, p.clients, len(p.samples), seed), s.e2e[w.name])
		if err := p.firstError(); err != nil {
			fmt.Printf("first failure: %v\n", err)
		}
		t, err := r.traced()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		s.layers[w.name] = t.layers
		s.failed += t.pass.failed()
		printResults(os.Stdout, fmt.Sprintf("%s per-layer (traced pass: 1 client, %d requests; layer probes)",
			w.name, len(t.pass.samples)), t.layers)
		if err := t.pass.firstError(); err != nil {
			fmt.Printf("first failure: %v\n", err)
		}
	}
	return s, nil
}

// runAll runs every workload with both passes, repeat times, and with
// repeat >= 2 checks consecutive sets against the benchmark's own bounds.
func runAll(seed int64, seconds, repeat int, outDir string) error {
	var sets []*set
	failed := 0
	for i := 0; i < repeat; i++ {
		if repeat > 1 {
			fmt.Printf("#### set %d of %d ####\n", i+1, repeat)
		}
		s, err := runSet(seed, seconds, outDir)
		if err != nil {
			return err
		}
		sets = append(sets, s)
		failed += s.failed
	}
	breaches := 0
	for i := 1; i < len(sets); i++ {
		breaches += compareSets(os.Stdout, sets[i-1], sets[i])
	}
	if failed > 0 {
		return errIncorrect
	}
	if breaches > 0 {
		return fmt.Errorf("%d end-to-end metrics differ between sets by more than their bound", breaches)
	}
	return nil
}

// worsening is how much worse b is than a, as a share of a, in the
// metric's own direction (negative = better).
func worsening(def metricDef, a, b float64) float64 {
	if a == 0 {
		if b == 0 {
			return 0
		}
		return math.Inf(1)
	}
	d := (b - a) / math.Abs(a)
	if def.better == "higher" {
		d = -d
	}
	return d
}

// compareSets prints, per workload × end-to-end metric, the relative
// difference between two sets of the same code next to its bound, and flags
// per-layer counts (from the 1-client traced pass) that did not repeat
// exactly. It returns the number of breached bounds.
func compareSets(w io.Writer, a, b *set) (breaches int) {
	fmt.Fprintf(w, "#### self-check: same code, two sets ####\n")
	for _, wl := range workloads {
		ra, rb := a.e2e[wl.name], b.e2e[wl.name]
		for _, def := range endToEndMetrics {
			va, vb := ra.by[def.name].v, rb.by[def.name].v
			// Same code has no better or worse side: the larger of the two
			// directions is the disagreement.
			diff := math.Max(worsening(def, va, vb), worsening(def, vb, va))
			verdict := "ok"
			if diff > def.bound {
				verdict = "BREACH"
				breaches++
			}
			fmt.Fprintf(w, "  %-14s %-26s %12.6g vs %12.6g  diff %6.2f%%  bound %4.0f%%  %s\n",
				wl.name, def.name, va, vb, diff*100, def.bound*100, verdict)
		}
		la, lb := a.layers[wl.name], b.layers[wl.name]
		var drift []string
		for _, def := range perLayerMetrics {
			if def.unit == "count" && la.by[def.name].v != lb.by[def.name].v {
				drift = append(drift, fmt.Sprintf("%s %g vs %g", def.name, la.by[def.name].v, lb.by[def.name].v))
			}
		}
		if len(drift) > 0 {
			fmt.Fprintf(w, "  %-14s layer counts that did not repeat exactly: %s\n", wl.name, strings.Join(drift, "; "))
		}
	}
	return breaches
}
