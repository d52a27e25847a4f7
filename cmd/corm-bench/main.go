// Command corm-bench regenerates the tables and figures of the CoRM paper
// (SIGMOD 2021) as plain-text tables.
//
// Usage:
//
//	corm-bench list                 # show available experiments
//	corm-bench all [-full]          # run everything (light ones first)
//	corm-bench fig12 fig13 [-full]  # run selected experiments
//
// Without -full, experiments run at reduced scale (smaller populations,
// shorter measurement windows) so the whole suite finishes in tens of
// minutes; -full uses the paper's sizes.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/debug"
	"time"

	"corm/internal/experiments"
	"corm/internal/metrics"
)

func main() {
	full := flag.Bool("full", false, "run at the paper's scale (slow)")
	seed := flag.Int64("seed", 1, "deterministic seed")
	showMetrics := flag.Bool("metrics", false, "dump the internal metrics summary after each experiment")
	flag.Usage = usage
	flag.Parse()
	dumpMetrics = *showMetrics
	args := flag.Args()
	if len(args) == 0 {
		usage()
		os.Exit(2)
	}

	opts := experiments.Options{Full: *full, Seed: *seed}
	switch args[0] {
	case "list":
		for _, e := range experiments.All {
			heavy := ""
			if e.Heavy {
				heavy = " (heavy)"
			}
			fmt.Printf("  %-8s %s%s\n", e.Name, e.Desc, heavy)
		}
		return
	case "all":
		for _, e := range experiments.All {
			run(e, opts)
		}
		return
	case "failover":
		runFailover(args[1:])
		return
	case "soak":
		runSoak(args[1:])
		return
	}
	for _, name := range args {
		e, ok := experiments.Lookup(name)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (try: corm-bench list)\n", name)
			os.Exit(2)
		}
		run(e, opts)
	}
}

// dumpMetrics turns on the per-experiment metrics summary (-metrics).
var dumpMetrics bool

func run(e experiments.Experiment, opts experiments.Options) {
	fmt.Printf("--- %s: %s\n", e.Name, e.Desc)
	if dumpMetrics {
		// Zero the registry so the summary reflects only this experiment.
		metrics.Default().Reset()
	}
	start := time.Now()
	for _, t := range e.Run(opts) {
		fmt.Println(t.String())
	}
	fmt.Printf("(%s finished in %v)\n\n", e.Name, time.Since(start).Round(time.Millisecond))
	if dumpMetrics {
		fmt.Printf("metrics for %s:\n", e.Name)
		metrics.Default().DumpText(os.Stdout)
		fmt.Println()
	}
	// Experiments build multi-hundred-MB populations; return the memory
	// to the OS before the next one so the whole suite fits small hosts.
	debug.FreeOSMemory()
}

func usage() {
	fmt.Fprintf(os.Stderr, `corm-bench regenerates the CoRM paper's tables and figures.

usage:
  corm-bench list
  corm-bench all [-full] [-seed N]
  corm-bench <experiment>... [-full] [-seed N]
  corm-bench failover [-nodes N] [-replicas K] [-write-concern W]
                      [-keys N] [-size B] [-out FILE]
  corm-bench soak [-scenario NAME] [-duration D] [-seed N] [-out FILE]
                  [-quiet] [-list]
`)
	flag.PrintDefaults()
}
