// Command pushpull-scen lists, inspects and runs declarative scenarios
// on the simulated testbed, emitting machine-readable JSON results.
//
// Usage:
//
//	pushpull-scen list
//	pushpull-scen patterns
//	pushpull-scen spec <scenario>
//	pushpull-scen run [-seed N] [-messages N] [-size N] [-algorithm A] [-faults FILE] [-samples] [-out FILE] <scenario|spec.json> ...
//	pushpull-scen sweeps
//	pushpull-scen sweep [-workers N] [-digest] [-print] [-out FILE] <sweep|sweep.json>
//
// "run" accepts builtin scenario names (see "list") and paths to JSON
// spec files (see "spec" for the schema; a file only needs the fields
// that differ from the paper's testbed defaults). Results go to stdout
// as a JSON array, or to -out. Rerunning with the same seed reproduces
// byte-identical results — the digest field makes that checkable.
//
// "sweep" expands a base spec over a cartesian parameter grid and runs
// the points across a worker pool of independent engines (one engine
// per goroutine). Results are emitted in deterministic grid order with
// an aggregate digest: the output is byte-identical whatever -workers.
//
// Exit codes: 0 on success, 1 on operational errors, 2 on usage errors,
// 3 when any run or sweep point exhausted its virtual-time budget — the
// signature of a protocol deadlock or retransmission livelock — and 4
// when the transport diagnosed an unreachable peer (the retransmission
// budget fired; see -faults and the protocol's maxRetries), so CI and
// sweep drivers tell stalls from diagnosed dead links mechanically.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"pushpull/internal/fault"
	"pushpull/internal/scenario"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	switch os.Args[1] {
	case "list":
		// Sorted by name, not definition order: the listing is piped into
		// scripts (see the Makefile's scenarios target), so it must be
		// deterministic and greppable.
		specs := scenario.Builtin()
		sort.Slice(specs, func(i, j int) bool { return specs[i].Name < specs[j].Name })
		for _, s := range specs {
			fmt.Printf("%-24s %s\n", s.Name, s.Description)
		}
	case "patterns":
		for _, name := range scenario.PatternNames() {
			fmt.Printf("%-12s %s\n", name, scenario.PatternDoc(name))
		}
	case "spec":
		if len(os.Args) != 3 {
			fmt.Fprintln(os.Stderr, "usage: pushpull-scen spec <scenario>")
			os.Exit(2)
		}
		spec, err := scenario.ByName(os.Args[2])
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s\n", spec.JSON())
	case "run":
		runCmd(os.Args[2:])
	case "sweeps":
		sweeps := scenario.BuiltinSweeps()
		sort.Slice(sweeps, func(i, j int) bool { return sweeps[i].Name < sweeps[j].Name })
		for _, sw := range sweeps {
			fmt.Printf("%-20s %4d points  %s\n", sw.Name, sw.Grid.Points(), sw.Description)
		}
	case "sweep":
		sweepCmd(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "pushpull-scen: unknown command %q\n\n", os.Args[1])
		usage()
		os.Exit(2)
	}
}

func runCmd(args []string) {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	seed := fs.Uint64("seed", 0, "override the scenario seed (0 keeps the spec's)")
	messages := fs.Int("messages", 0, "override the per-sender message count (0 keeps the spec's)")
	size := fs.Int("size", 0, "override the message size in bytes (0 keeps the spec's)")
	algorithm := fs.String("algorithm", "", "override the collective algorithm (collective patterns only; empty keeps the spec's)")
	faults := fs.String("faults", "", "overlay a JSON fault plan file onto every scenario (replaces the spec's own)")
	samples := fs.Bool("samples", false, "include raw per-message latency samples in the output")
	out := fs.String("out", "", "write results to this file instead of stdout")
	fs.Parse(args)
	if fs.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: pushpull-scen run [flags] <scenario|spec.json> ...")
		os.Exit(2)
	}
	var plan *fault.Plan
	if *faults != "" {
		data, err := os.ReadFile(*faults)
		if err != nil {
			fatal(err)
		}
		plan, err = fault.ParsePlan(data)
		if err != nil {
			fatal(err)
		}
	}

	var results []string
	for _, arg := range fs.Args() {
		spec, err := resolve(arg)
		if err != nil {
			fatal(err)
		}
		if *seed != 0 {
			spec.Seed = *seed
		}
		if *messages > 0 {
			spec.Traffic.Messages = *messages
		}
		if *size > 0 {
			spec.Traffic.Size = *size
		}
		if *algorithm != "" {
			spec.Traffic.Algorithm = *algorithm
		}
		if plan != nil {
			spec.Faults = plan
		}
		var opts []scenario.RunOption
		if *samples {
			opts = append(opts, scenario.KeepSamples())
		}
		res, err := scenario.Run(spec, opts...)
		if err != nil {
			if scenario.IsPeerUnreachable(err) {
				fmt.Fprintln(os.Stderr, "pushpull-scen:", err)
				os.Exit(exitUnreachable)
			}
			if scenario.IsBudgetError(err) {
				fmt.Fprintln(os.Stderr, "pushpull-scen:", err)
				os.Exit(exitBudget)
			}
			fatal(err)
		}
		results = append(results, string(res.JSON()))
		fmt.Fprintf(os.Stderr, "%s: %d receives, %d payload bytes, %.1f virtual µs, trimmed-mean latency %.2f µs, digest %s\n",
			spec.Name, res.Receives, res.Bytes, res.VirtualUS, res.Latency.TrimmedMean, res.Digest[:12])
	}

	blob := "[\n" + strings.Join(results, ",\n") + "\n]\n"
	if *out != "" {
		if err := os.WriteFile(*out, []byte(blob), 0o644); err != nil {
			fatal(err)
		}
		return
	}
	fmt.Print(blob)
}

func sweepCmd(args []string) {
	fs := flag.NewFlagSet("sweep", flag.ExitOnError)
	workers := fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS); never changes the results")
	digest := fs.Bool("digest", false, "print only the aggregate digest to stdout")
	printSpec := fs.Bool("print", false, "print the sweep's JSON spec instead of running it")
	samples := fs.Bool("samples", false, "include raw per-message latency samples in every point result")
	out := fs.String("out", "", "write the sweep result to this file instead of stdout")
	fs.Parse(args)
	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: pushpull-scen sweep [flags] <sweep|sweep.json>")
		os.Exit(2)
	}

	sw, err := resolveSweep(fs.Arg(0))
	if err != nil {
		fatal(err)
	}
	if *printSpec {
		fmt.Printf("%s\n", sw.JSON())
		return
	}
	var opts []scenario.RunOption
	if *samples {
		opts = append(opts, scenario.KeepSamples())
	}
	w := *workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	//pushpull:lint-allow walltime wall-clock sweep duration for the points/s progress line; sweep digests depend only on virtual time
	start := time.Now()
	res, err := scenario.RunSweep(sw, w, opts...)
	if err != nil {
		fatal(err)
	}
	elapsed := time.Since(start) //pushpull:lint-allow walltime wall-clock sweep duration for the points/s progress line; sweep digests depend only on virtual time
	fmt.Fprintf(os.Stderr, "%s: %d points (%d failed) on %d workers in %.2fs (%.1f points/s), digest %s\n",
		res.Sweep, res.Points, res.Failed, w, elapsed.Seconds(),
		float64(res.Points)/elapsed.Seconds(), res.Digest[:12])
	stalled := 0
	for i := range res.Results {
		if res.Results[i].BudgetExhausted {
			stalled++
		}
	}
	if stalled > 0 {
		fmt.Fprintf(os.Stderr, "pushpull-scen: %d point(s) exhausted their virtual-time budget (deadlock or retransmission livelock)\n", stalled)
	}

	if *out != "" {
		if err := os.WriteFile(*out, append(res.JSON(), '\n'), 0o644); err != nil {
			fatal(err)
		}
	}
	if *digest {
		fmt.Println(res.Digest)
	} else if *out == "" {
		os.Stdout.Write(append(res.JSON(), '\n'))
	}
	if stalled > 0 {
		os.Exit(exitBudget)
	}
}

// resolveSweep maps a sweep argument to a spec: a builtin name, or a
// path to a JSON sweep file.
func resolveSweep(arg string) (scenario.Sweep, error) {
	if sw, err := scenario.SweepByName(arg); err == nil {
		return sw, nil
	}
	data, err := os.ReadFile(arg)
	if err != nil {
		return scenario.Sweep{}, fmt.Errorf("%q is neither a builtin sweep (see \"pushpull-scen sweeps\") nor a readable sweep file: %w", arg, err)
	}
	return scenario.ParseSweep(data)
}

// resolve maps a run argument to a spec: a builtin name, or a path to a
// JSON spec file.
func resolve(arg string) (scenario.Spec, error) {
	if spec, err := scenario.ByName(arg); err == nil {
		return spec, nil
	}
	data, err := os.ReadFile(arg)
	if err != nil {
		return scenario.Spec{}, fmt.Errorf("%q is neither a builtin scenario (see \"pushpull-scen list\") nor a readable spec file: %w", arg, err)
	}
	return scenario.ParseSpec(data)
}

// exitBudget is the distinct exit code for virtual-time-budget
// exhaustion: a stalled protocol, not an operational error.
// exitUnreachable is its structured counterpart: the transport
// diagnosed a dead peer and failed fast instead of stalling, so drivers
// can distinguish "the protocol hung" from "the network was declared
// broken". Checked first — an unreachable-peer diagnosis is more
// specific than any budget it also happens to blow.
const (
	exitBudget      = 3
	exitUnreachable = 4
)

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pushpull-scen:", err)
	os.Exit(1)
}

func usage() {
	fmt.Fprint(os.Stderr, `pushpull-scen: declarative scenarios for the Push-Pull Messaging testbed.

usage:
  pushpull-scen list                  list builtin scenarios
  pushpull-scen patterns              list traffic patterns a spec can name
  pushpull-scen spec <scenario>       print a scenario's JSON spec (edit + feed back to run)
  pushpull-scen run [flags] <scenario|spec.json> ...
                                      run scenarios, JSON results to stdout
  pushpull-scen sweeps                list builtin parameter sweeps
  pushpull-scen sweep [flags] <sweep|sweep.json>
                                      expand a base spec over a parameter grid and
                                      run every point on a worker pool

run flags:
  -seed N       override the seed (same seed => byte-identical result)
  -messages N   override per-sender message count
  -size N       override message size
  -algorithm A  override the collective algorithm (collective patterns only)
  -faults FILE  overlay a JSON fault plan (link/node fault schedule) on every run
  -samples      include raw latency samples in the JSON
  -out FILE     write the JSON array to FILE

exit codes: 1 operational error, 2 usage, 3 virtual-time budget
exhausted (deadlock/livelock), 4 peer declared unreachable
(retransmission budget exhausted toward a dead link)

sweep flags:
  -workers N    pool size (0 = GOMAXPROCS); results are byte-identical for any N
  -digest       print only the aggregate digest (CI determinism checks)
  -print        print the sweep's JSON spec instead of running it
  -samples      keep raw latency samples in every point result
  -out FILE     write the sweep result JSON to FILE
`)
}
