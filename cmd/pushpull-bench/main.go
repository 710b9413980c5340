// Command pushpull-bench regenerates the paper's tables and figures (and
// this repository's ablations) on the simulated testbed.
//
// Usage:
//
//	pushpull-bench [-iters N] [-workers N] [-csv] [experiment ...]
//	pushpull-bench -list
//
// With no experiment arguments, every experiment runs. Experiments are
// independent simulations, so they execute across a worker pool (one
// engine per goroutine, -workers, default GOMAXPROCS) and print in the
// requested order with identical numbers for any worker count; the
// latency curves also run their points across the pool. Each experiment
// prints one or more tables whose rows correspond to the paper's figure
// axes, followed (without -csv) by the paper's own reading.
//
// -iters caps the timed iterations (messages) of every point, 1000 by
// default as in the paper. Experiments that need fewer use fewer — the
// Figure 6 tests 200, the interrupt, trigger and polling ablations 500 —
// and the multi-run cells scale it down (bandwidth peaks use a tenth or
// a quarter).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"pushpull/internal/bench"
	"pushpull/internal/stats"
)

func main() {
	iters := flag.Int("iters", 1000, "cap on the timed iterations (messages) of every point (paper: 1000)")
	workers := flag.Int("workers", 0, "experiments run concurrently on this many workers (0 = GOMAXPROCS); never changes the numbers")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned tables")
	list := flag.Bool("list", false, "list experiment ids and exit")
	flag.Usage = usage
	flag.Parse()

	if *list {
		for _, e := range bench.All() {
			fmt.Printf("%-20s %s\n", e.ID, e.Title)
		}
		return
	}

	if *iters < 1 {
		fmt.Fprintln(os.Stderr, "pushpull-bench: -iters must be at least 1")
		os.Exit(2)
	}

	ids := flag.Args()
	if len(ids) == 0 {
		for _, e := range bench.All() {
			ids = append(ids, e.ID)
		}
	}

	var exps []bench.Experiment
	for _, id := range ids {
		e, err := bench.ByID(id)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			fmt.Fprintln(os.Stderr, "run with -list to see available experiments")
			os.Exit(2)
		}
		exps = append(exps, e)
	}

	params := bench.Params{Iters: *iters}
	//pushpull:lint-allow walltime wall-clock total for the closing progress line; results and tables carry only virtual time
	start := time.Now()
	// Tables stream in input order as experiments complete, so a long
	// run shows progress and an interrupted one keeps what finished.
	bench.RunExperimentsStream(exps, params, *workers, func(i int, tables []*stats.Table) {
		for _, tab := range tables {
			if *csv {
				fmt.Print(tab.CSV())
			} else {
				fmt.Println(tab.Render())
			}
		}
		if !*csv {
			fmt.Printf("# paper: %s\n# (%s)\n\n", exps[i].Paper, exps[i].ID)
		}
	})
	if !*csv {
		fmt.Printf("# %d experiment(s), total wall time %.1fs\n", len(exps), time.Since(start).Seconds()) //pushpull:lint-allow walltime wall-clock duration for operator progress output only
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `pushpull-bench: regenerate the evaluation of
"Push-Pull Messaging" (Wong & Wang, ICPP 1999) on the simulated testbed.

usage: pushpull-bench [-iters N] [-csv] [experiment ...]

`)
	flag.PrintDefaults()
	fmt.Fprintf(os.Stderr, "\nexperiments:\n")
	for _, e := range bench.All() {
		fmt.Fprintf(os.Stderr, "  %-20s %s\n", e.ID, e.Title)
	}
}
