// Command bench is the repository's benchmark: five workloads on the path
// users take, end-to-end metrics from an untraced run and per-layer metrics
// from a traced one. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "run one workload and print one JSON result line (the driver's form); empty runs all five")
	seed := flag.Int64("seed", 1, "seed of the generated op streams")
	seconds := flag.Float64("seconds", 0, "timed window in seconds (default 15, or 1 with -short)")
	trace := flag.String("trace", "0", "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics")
	out := flag.String("out", "", "write every run's numbers to this JSON file")
	spansTo := flag.String("spans", "", "write the traced runs' spans to this file")
	repeat := flag.Int("repeat", 1, "run the untraced set N times and check each metric's range against its bound")
	short := flag.Bool("short", false, "1 s windows, one set-up, probes at 2000 calls")
	flag.Parse()

	if *seconds == 0 {
		*seconds = 15
		if *short {
			*seconds = 1
		}
	}
	if *seconds < 0.5 || (*trace != "0" && *trace != "1") || *repeat < 1 || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be at least 0.5, -trace 0 or 1, -repeat at least 1, and there are no positional arguments")
		return 2
	}
	cfg := configFor(*seconds, *short)

	if *name != "" {
		w, ok := workloadByName(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		return runOne(w, *seed, cfg, *trace == "1")
	}
	if *repeat > 1 {
		return runRepeat(*seed, cfg, *repeat)
	}
	return runAll(*seed, cfg, *out, *spansTo)
}

// runOne is the driver's form: one workload, one mode, one JSON line.
func runOne(w workloadDef, seed int64, cfg runConfig, traced bool) int {
	do := runUntraced
	if traced {
		do = runTraced
	}
	o, err := do(w, seed, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	printMetrics(o)
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{o.correct(), o.Attempted, o.Failed, make(map[string]value)}
	if traced {
		for _, d := range perLayer {
			line.Metrics[d.name] = value{o.Metrics[d.name], d.unit}
		}
	} else {
		for _, d := range endToEnd {
			line.Metrics[d.name] = value{o.Metrics[d.name], d.unit}
		}
	}
	if o.Idle != "" {
		fmt.Fprintln(os.Stderr, "bench:", w.name, o.Idle)
	}
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}

// printMetrics prints `workload metric value unit`, one metric per line, in
// the order names.go lists them.
func printMetrics(o *runOutput) {
	unit := make(map[string]string)
	var order []string
	for _, d := range endToEnd {
		unit[d.name] = d.unit
		order = append(order, d.name)
	}
	for _, d := range perLayer {
		unit[d.name] = d.unit
		order = append(order, d.name)
	}
	for _, name := range order {
		if v, ok := o.Metrics[name]; ok {
			if n, ok := o.Samples[name]; ok {
				fmt.Printf("%s %s %.6g %s n=%d\n", o.Workload, name, v, unit[name], n)
			} else {
				fmt.Printf("%s %s %.6g %s\n", o.Workload, name, v, unit[name])
			}
		}
	}
	fmt.Printf("%s fail_share %.6g share attempted=%d failed=%d\n", o.Workload,
		ratio(float64(o.Failed), float64(o.Attempted)), o.Attempted, o.Failed)
}

// runAll runs every workload untraced and then traced, prints every metric
// and exits non-zero when an op failed or a workload left its layer idle.
func runAll(seed int64, cfg runConfig, outPath, spansPath string) int {
	var runs []*runOutput
	code := 0
	var spans *os.File
	if spansPath != "" {
		f, err := os.Create(spansPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		spans = f
	}
	for _, w := range workloads {
		for _, do := range []func(workloadDef, int64, runConfig) (*runOutput, error){runUntraced, runTraced} {
			o, err := do(w, seed, cfg)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			printMetrics(o)
			if !o.correct() {
				fmt.Fprintf(os.Stderr, "bench: %s: %d of %d ops failed %s\n", w.name, o.Failed, o.Attempted, o.Idle)
				code = 1
			}
			if spans != nil && o.Traced {
				if err := writeSpans(spans, w.name, o.spans); err != nil {
					fmt.Fprintln(os.Stderr, "bench:", err)
					code = 1
				}
			}
			runs = append(runs, o)
		}
	}
	if spans != nil {
		if err := spans.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			code = 1
		}
	}
	if outPath != "" {
		doc, err := json.MarshalIndent(struct {
			Seed    int64        `json:"seed"`
			Seconds float64      `json:"seconds"`
			Clock   string       `json:"clock"`
			Runs    []*runOutput `json:"runs"`
		}{seed, cfg.seconds.Seconds(), "wall clock on TCP loopback of the host; nothing from the internal/timing model", runs}, "", "  ")
		if err == nil {
			err = os.WriteFile(outPath, append(doc, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			code = 1
		}
	}
	return code
}

// runRepeat runs the untraced set n times and reports, per workload and
// end-to-end metric, min / median / max and (max-min)/median against the
// metric's bound. It exits non-zero when a range exceeds its bound.
func runRepeat(seed int64, cfg runConfig, n int) int {
	vals := make(map[string]map[string][]float64)
	code := 0
	for i := 0; i < n; i++ {
		for _, w := range workloads {
			o, err := runUntraced(w, seed, cfg)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			if !o.correct() {
				fmt.Fprintf(os.Stderr, "bench: %s: %d of %d ops failed %s\n", w.name, o.Failed, o.Attempted, o.Idle)
				code = 1
			}
			if vals[w.name] == nil {
				vals[w.name] = make(map[string][]float64)
			}
			for _, d := range endToEnd {
				vals[w.name][d.name] = append(vals[w.name][d.name], o.Metrics[d.name])
			}
		}
	}
	for _, w := range workloads {
		for _, d := range endToEnd {
			v := append([]float64(nil), vals[w.name][d.name]...)
			sort.Float64s(v)
			med := median(v)
			spread := ratio(v[len(v)-1]-v[0], med)
			verdict := "ok"
			if spread > d.bound {
				verdict = "EXCEEDS"
				code = 1
			}
			fmt.Printf("%s %s min=%.6g median=%.6g max=%.6g %s range/median=%.3f bound=%.2f %s\n",
				w.name, d.name, v[0], med, v[len(v)-1], d.unit, spread, d.bound, verdict)
		}
	}
	return code
}
