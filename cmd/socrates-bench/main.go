// Command socrates-bench regenerates the paper's evaluation tables and
// figures (Tables 1–7, Figure 4) and prints them in the paper's layout.
//
// Usage:
//
//	socrates-bench -exp all
//	socrates-bench -exp table5 -measure 3s -threads 64
//	socrates-bench -exp figure4 -sf 1000
//	socrates-bench -exp obs -json BENCH.json
//
// Absolute numbers are scaled (the substrate is a simulator); the shapes —
// who wins, by what factor, where the crossovers are — are the result.
//
// With -json the per-experiment results are additionally written to the
// given file as a single JSON object keyed by experiment name, so CI and the
// repo's BENCH_*.json seeds can track shapes across commits.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"text/tabwriter"
	"time"

	"socrates/internal/experiments"
)

// results accumulates machine-readable rows per experiment for -json.
var results = map[string]any{}

func main() {
	exp := flag.String("exp", "all", "experiment: table1..table7, figure4, cache, obs, waits, router, or all")
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

	selected := strings.Split(*exp, ",")
	want := func(name string) bool {
		for _, s := range selected {
			if s == "all" || s == name {
				return true
			}
			if s == "cache" && (name == "table3" || name == "table4") {
				return true
			}
		}
		return false
	}

	ok := true
	run := func(name string, f func() error) {
		if !want(name) {
			return
		}
		fmt.Printf("\n=== %s ===\n", strings.ToUpper(name))
		start := time.Now()
		if err := f(); err != nil {
			ok = false
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", name, err)
			return
		}
		fmt.Printf("(%s in %.1fs)\n", name, time.Since(start).Seconds())
	}

	run("table1", func() error { return runTable1(o) })
	run("table2", func() error { return runTable2(o) })
	run("table3", func() error { return runTable3(o) })
	run("table4", func() error { return runTable4(o) })
	run("table5", func() error { return runTable5(o) })
	run("table6", func() error { return runTable6(o) })
	run("figure4", func() error { return runFigure4(o) })
	run("table7", func() error { return runTable7(o) })
	run("obs", func() error { return runObs(o) })
	run("waits", func() error { return runWaits(o) })
	run("router", func() error { return runRouter(o) })

	if *jsonOut != "" {
		results["generated"] = time.Now().UTC().Format(time.RFC3339)
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

func tw() *tabwriter.Writer {
	return tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
}

func runTable1(o experiments.Options) error {
	rows, err := experiments.Table1(o)
	if err != nil {
		return err
	}
	results["table1"] = rows
	w := tw()
	fmt.Fprintln(w, "Metric\tToday (HADR)\tSocrates")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%s\t%s\n", r.Metric, r.HADR, r.Socrates)
	}
	return w.Flush()
}

func runTable2(o experiments.Options) error {
	h, s, err := experiments.Table2(o)
	if err != nil {
		return err
	}
	results["table2"] = map[string]any{"hadr": h, "socrates": s}
	w := tw()
	fmt.Fprintln(w, "System\tCPU %\tWrite TPS\tRead TPS\tTotal TPS")
	for _, r := range []experiments.ThroughputRow{h, s} {
		fmt.Fprintf(w, "%s\t%.1f\t%.0f\t%.0f\t%.0f\n",
			r.System, r.CPUPct, r.WriteTPS, r.ReadTPS, r.TotalTPS)
	}
	fmt.Fprintf(w, "\nSocrates/HADR total TPS ratio: %.2f (paper: 0.95)\n",
		s.TotalTPS/h.TotalTPS)
	return w.Flush()
}

func runTable3(o experiments.Options) error {
	r, err := experiments.Table3(o)
	if err != nil {
		return err
	}
	results["table3"] = r
	printCacheRow(r, "paper: 52% at 15% cache")
	return nil
}

func runTable4(o experiments.Options) error {
	r, err := experiments.Table4(o)
	if err != nil {
		return err
	}
	results["table4"] = r
	printCacheRow(r, "paper: 32% at ~1% cache")
	return nil
}

func printCacheRow(r experiments.CacheRow, note string) {
	w := tw()
	fmt.Fprintln(w, "Workload\tData pages\tCache pages\tCache ratio\tLocal hit %")
	fmt.Fprintf(w, "%s\t%d\t%d\t%.1f%%\t%.1f%%\n",
		r.Workload, r.DataPages, r.CachePages, r.CacheRatio*100, r.HitPct)
	fmt.Fprintf(w, "(%s)\n", note)
	w.Flush()
}

func runTable5(o experiments.Options) error {
	h, s, err := experiments.Table5(o)
	if err != nil {
		return err
	}
	results["table5"] = map[string]any{"hadr": h, "socrates": s}
	w := tw()
	fmt.Fprintln(w, "System\tLog MB/s\tCPU %")
	fmt.Fprintf(w, "%s\t%.2f\t%.1f\n", h.System, h.LogMBps, h.CPUPct)
	fmt.Fprintf(w, "%s\t%.2f\t%.1f\n", s.System, s.LogMBps, s.CPUPct)
	fmt.Fprintf(w, "\nSocrates/HADR log ratio: %.2f (paper: 1.58)\n", s.LogMBps/h.LogMBps)
	return w.Flush()
}

func runTable6(o experiments.Options) error {
	xio, dd, err := experiments.Table6(o)
	if err != nil {
		return err
	}
	results["table6"] = map[string]any{"xio": xio, "directdrive": dd}
	w := tw()
	fmt.Fprintln(w, "Service\tSTDEV (us)\tMin (us)\tMedian (us)\tMax (us)")
	for _, r := range []experiments.LatencyRow{xio, dd} {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\n", r.Service,
			r.Stats.Stdev.Microseconds(), r.Stats.Min.Microseconds(),
			r.Stats.Median.Microseconds(), r.Stats.Max.Microseconds())
	}
	fmt.Fprintf(w, "\nXIO/DD median ratio: %.1f (paper: 4.1)\n",
		float64(xio.Stats.Median)/float64(dd.Stats.Median))
	return w.Flush()
}

func runFigure4(o experiments.Options) error {
	points, err := experiments.Figure4(o, nil)
	if err != nil {
		return err
	}
	results["figure4"] = points
	w := tw()
	fmt.Fprintln(w, "Service\tThreads\tUpdateLite TPS")
	for _, p := range points {
		fmt.Fprintf(w, "%s\t%d\t%.0f\n", p.Service, p.Threads, p.TPS)
	}
	return w.Flush()
}

func runTable7(o experiments.Options) error {
	xio, dd, err := experiments.Table7(o, 0)
	if err != nil {
		return err
	}
	results["table7"] = map[string]any{"xio": xio, "directdrive": dd}
	w := tw()
	fmt.Fprintln(w, "Service\tThreads\tLog MB/s\tCPU %")
	for _, r := range []experiments.EfficiencyRow{xio, dd} {
		fmt.Fprintf(w, "%s\t%d\t%.2f\t%.1f\n", r.Service, r.Threads, r.LogMBps, r.CPUPct)
	}
	fmt.Fprintf(w, "\nXIO needs %.0fx threads and %.1fx CPU per MB/s (paper: 8x threads, ~3x CPU)\n",
		float64(xio.Threads)/float64(dd.Threads),
		(xio.CPUPct/xio.LogMBps)/(dd.CPUPct/dd.LogMBps))
	return w.Flush()
}

func runObs(o experiments.Options) error {
	r, err := experiments.FlightOverhead(o)
	if err != nil {
		return err
	}
	results["obs"] = r
	w := tw()
	fmt.Fprintln(w, "Flight recorder\tTotal TPS")
	fmt.Fprintf(w, "disabled\t%.0f\n", r.DisabledTPS)
	fmt.Fprintf(w, "enabled\t%.0f\n", r.EnabledTPS)
	fmt.Fprintf(w, "\nOverhead: %.1f%% (target < 5%%); %d events recorded, %d watermarks live\n",
		r.OverheadPct, r.Events, r.Watermarks)
	if r.OverheadPct >= 5 {
		fmt.Fprintln(w, "WARNING: overhead exceeds the 5% budget on this host")
	}
	return w.Flush()
}

func runWaits(o experiments.Options) error {
	r, err := experiments.WaitOverhead(o)
	if err != nil {
		return err
	}
	results["waits"] = r
	w := tw()
	fmt.Fprintln(w, "Wait accounting\tTotal TPS")
	fmt.Fprintf(w, "disabled\t%.0f\n", r.DisabledTPS)
	fmt.Fprintf(w, "enabled\t%.0f\n", r.EnabledTPS)
	fmt.Fprintf(w, "\nOverhead: %.1f%% (target < 3%%); %d wait classes live, dominant: %s\n",
		r.OverheadPct, r.Classes, r.TopClass)
	fmt.Fprintf(w, "Per-request attribution: %.0f%% of commit latency explained (target >= 80%%)\n",
		r.AttributedPct)
	if r.OverheadPct >= 3 {
		fmt.Fprintln(w, "WARNING: overhead exceeds the 3% budget on this host")
	}
	if r.AttributedPct < 80 {
		fmt.Fprintln(w, "WARNING: attribution coverage below the 80% target on this host")
	}
	return w.Flush()
}

func runRouter(o experiments.Options) error {
	r, err := experiments.Router(o)
	if err != nil {
		return err
	}
	results["router"] = r
	w := tw()
	fmt.Fprintf(w, "Victim vs noisy neighbor, one pool, %.0f MB/s landing zone, %d B noisy writes\n",
		r.LZMBps, r.NoisyBytes)
	fmt.Fprintln(w, "Arm\tVictim ops\tp50 (us)\tp99 (us)\tNoisy ops\tRejects")
	fmt.Fprintf(w, "quiet\t%d\t%d\t%d\t-\t-\n", r.QuietOps, r.QuietP50Us, r.QuietP99Us)
	fmt.Fprintf(w, "no admission\t%d\t%d\t%d\t%d\t-\n", r.OpenOps, r.OpenP50Us, r.OpenP99Us, r.OpenNoisy)
	fmt.Fprintf(w, "admission %.0f/s\t%d\t%d\t%d\t%d\t%d\n",
		r.NoisyRate, r.AdmitOps, r.AdmitP50Us, r.AdmitP99Us, r.AdmitNoisy, r.AdmitRejects)
	fmt.Fprintf(w, "\nvictim p99 vs quiet: %.2fx flooded (target >= 2x), %.2fx with admission (target <= 1.25x)\n",
		r.OpenRatio, r.AdmitRatio)
	if r.OpenRatio < 2 {
		fmt.Fprintln(w, "WARNING: the flood did not degrade the victim 2x on this host")
	}
	if r.AdmitRatio > 1.25 {
		fmt.Fprintln(w, "WARNING: admission control left more than 1.25x degradation on this host")
	}
	return w.Flush()
}
