// Command expdriver regenerates the paper's evaluation (§6): every table
// and figure, the optimization-time note, the dataset-scale consistency
// check, and the system comparison. See DESIGN.md's experiment index. It
// is a thin front-end over internal/bench, whose paper-figure tests run
// the same report paths; that is why it is kept although no benchmark
// workload runs it.
//
// Usage:
//
//	expdriver -exp all                 # everything (quick mode)
//	expdriver -exp fig6 -full          # full linreg plan-space search (~minutes)
//	expdriver -exp fig3a,fig3b
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"riotshare/internal/bench"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "comma-separated experiments: all,table2,table3,table4,fig3a,fig3b,fig4,fig5,fig6,opttime,scales,compare")
		full    = flag.Bool("full", false, "run full plan-space searches (linreg explores ~16k combinations)")
		seed    = flag.Int64("seed", 1, "synthetic data seed")
		dir     = flag.String("data", "", "directory for physical block files (default: temp)")
		workers = flag.Int("workers", 1, "parallel kernel workers for physical runs (1 = in-order schedule)")
	)
	flag.Parse()
	opt := bench.Options{Quick: !*full, Seed: *seed, DataDir: *dir, Workers: *workers}

	runners := map[string]func(io.Writer, bench.Options) error{
		"table2":  func(w io.Writer, _ bench.Options) error { return bench.Table2(w) },
		"table3":  func(w io.Writer, _ bench.Options) error { return bench.Table3(w) },
		"table4":  func(w io.Writer, _ bench.Options) error { return bench.Table4(w) },
		"fig3a":   bench.Fig3a,
		"fig3b":   bench.Fig3b,
		"fig4":    bench.Fig4,
		"fig5":    bench.Fig5,
		"fig6":    bench.Fig6,
		"opttime": bench.OptTime,
		"scales":  bench.Scales,
		"compare": bench.Compare,
	}
	if *exp == "all" {
		if err := bench.RunAll(os.Stdout, opt); err != nil {
			fmt.Fprintln(os.Stderr, "expdriver:", err)
			os.Exit(1)
		}
		return
	}
	valid := make([]string, 0, len(runners)+1)
	for name := range runners {
		valid = append(valid, name)
	}
	sort.Strings(valid)
	valid = append([]string{"all"}, valid...)
	for _, name := range strings.Split(*exp, ",") {
		fn, ok := runners[strings.TrimSpace(name)]
		if !ok {
			fmt.Fprintf(os.Stderr, "expdriver: unknown experiment %q (valid: %s)\n",
				name, strings.Join(valid, ", "))
			os.Exit(2)
		}
		if err := fn(os.Stdout, opt); err != nil {
			fmt.Fprintf(os.Stderr, "expdriver: %s: %v\n", name, err)
			os.Exit(1)
		}
	}
}
