// Command socrates-bench runs the experiments of internal/experiments — the
// paper's evaluation tables and figure — and prints each in the paper's
// layout. `socrates-bench -h` lists them.
//
// Usage:
//
//	socrates-bench -exp all
//	socrates-bench -exp table5 -measure 3s -threads 64
//	socrates-bench -exp table1,table6 -json run.json
//
// Absolute numbers are scaled (the substrate is a simulator); the shapes —
// who wins, by what factor, where the crossovers are — are the result. An
// experiment that fails, or whose run lost the paper's shape, exits 1.
//
// With -json the named values of every experiment run are additionally
// written to the given file as one JSON object keyed by experiment name.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"

	"socrates/internal/experiments"
)

func main() {
	var names []string
	for _, e := range experiments.All {
		names = append(names, e.Name)
	}
	exp := flag.String("exp", "all", "comma-separated experiments: "+strings.Join(names, ", ")+", or all")
	measure := flag.Duration("measure", 2*time.Second, "measurement window per data point")
	warmup := flag.Duration("warmup", 500*time.Millisecond, "warm-up before each measurement")
	sf := flag.Int("sf", 2000, "CDB scale factor (rows per scaled table)")
	threads := flag.Int("threads", 64, "client threads for throughput experiments")
	jsonOut := flag.String("json", "", "write machine-readable results to this file")
	flag.Parse()

	o := experiments.Options{
		Measure: *measure,
		WarmUp:  *warmup,
		SF:      *sf,
		Threads: *threads,
	}

	selected := map[string]bool{}
	for _, s := range strings.Split(*exp, ",") {
		if s != "all" && !slices.Contains(names, s) {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; have %s, or all\n", s, strings.Join(names, ", "))
			os.Exit(2)
		}
		selected[s] = true
	}

	ok := true
	results := map[string]any{}
	for _, e := range experiments.All {
		if !selected["all"] && !selected[e.Name] {
			continue
		}
		fmt.Printf("\n=== %s ===\n", strings.ToUpper(e.Name))
		start := time.Now()
		rep, err := e.Run(o)
		if err != nil {
			ok = false
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", e.Name, err)
			continue
		}
		fmt.Print(rep)
		if rep.Shape != nil {
			ok = false
			fmt.Fprintf(os.Stderr, "%s lost its shape: %v\n", e.Name, rep.Shape)
		}
		fmt.Printf("(%s in %.1fs)\n", e.Name, time.Since(start).Seconds())
		values := map[string]float64{}
		for _, v := range rep.Values {
			values[v.Name] = v.V
		}
		results[e.Name] = values
	}

	if *jsonOut != "" {
		results["generated"] = time.Now().UTC().Format(time.RFC3339)
		results["host"] = fmt.Sprintf("%s %s/%s, %d CPUs", runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.NumCPU())
		results["options"] = map[string]any{
			"measure": o.Measure.String(), "warmup": o.WarmUp.String(),
			"sf": o.SF, "threads": o.Threads,
		}
		blob, err := json.MarshalIndent(results, "", "  ")
		if err == nil {
			err = os.WriteFile(*jsonOut, append(blob, '\n'), 0o644)
		}
		if err != nil {
			ok = false
			fmt.Fprintf(os.Stderr, "writing %s: %v\n", *jsonOut, err)
		} else {
			fmt.Printf("\nwrote %s\n", *jsonOut)
		}
	}

	if !ok {
		os.Exit(1)
	}
}
