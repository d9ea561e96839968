// Command bench is the repository's benchmark: four closed-loop workloads
// over the whole Socrates stack, end-to-end metrics from an untraced run and
// per-layer metrics from a traced one. See README.md in this directory and
// BENCHMARK.json at the repository root.
//
//	go run ./bench -workload commit-lite -seed 7            one workload, one seed
//	go run ./bench -workload read-miss -trace 1             the traced run
//	go run ./bench -runs 10 -traced -out a.json             every workload, fresh process each
//	go run ./bench -compare a.json b.json                   judge b against a
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"time"
)

// contractLine is the last line a single-workload run prints.
type contractLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// declared returns the metrics BENCHMARK.json lists for the run's mode, and
// fails if the run did not produce one of them or produced another unit.
func declared(m *manifest, res *result) (map[string]metric, error) {
	defs := m.EndToEnd
	if res.Traced {
		defs = m.PerLayer
	}
	out := make(map[string]metric, len(defs))
	for _, def := range defs {
		got, ok := res.Metrics[def.Name]
		if !ok {
			return nil, fmt.Errorf("metric %q is declared in BENCHMARK.json but was not measured", def.Name)
		}
		if got.Unit != def.Unit {
			return nil, fmt.Errorf("metric %q: measured in %q, declared in %q", def.Name, got.Unit, def.Unit)
		}
		out[def.Name] = got
	}
	return out, nil
}

// printTable writes the human-readable rows: every declared metric by name
// with its unit, and the sample count beside each percentile.
func printTable(w io.Writer, res *result, metrics map[string]metric) {
	names := make([]string, 0, len(metrics))
	for name := range metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "workload %s  seed %d  traced %v  attempted %d  failed %d\n",
		res.Workload, res.Seed, res.Traced, res.Attempted, res.Failed)
	for _, name := range names {
		mt := metrics[name]
		note := ""
		if n, ok := res.Samples[name]; ok {
			note = fmt.Sprintf("  (n=%d)", n)
			if !res.Traced {
				note = fmt.Sprintf("  (median of %d slices, n>=%d each)", res.Slices, n)
			}
			if q, ok := res.TailQ[name]; ok {
				note += fmt.Sprintf(" too few for p99: this is p%g", q*100)
			}
		}
		fmt.Fprintf(w, "  %-44s %14.4f %s%s\n", name, mt.Value, mt.Unit, note)
	}
}

// runOne is the single-workload mode the benchmark contract drives: it
// runs in this process, which the caller started fresh.
func runOne(m *manifest, root string, cfg runConfig, scale float64, stdout io.Writer) error {
	cfg.outDir = filepath.Join(root, "bench", "out")
	res, err := runWorkload(cfg)
	if err != nil {
		return err
	}
	if cfg.traced {
		if err := runProbes(res, scale); err != nil {
			return err
		}
	}
	metrics, err := declared(m, res)
	if err != nil {
		return err
	}
	printTable(stdout, res, metrics)
	line, err := json.Marshal(contractLine{Correct: res.Failed == 0, Attempted: res.Attempted,
		Failed: res.Failed, Metrics: metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// runRecord is one child run as the results file keeps it.
type runRecord struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Traced   bool   `json:"traced"`
	contractLine
}

// resultsFile is what the all-workloads mode writes and -compare reads.
type resultsFile struct {
	Seconds float64     `json:"seconds"`
	Scale   float64     `json:"scale"`
	Runs    []runRecord `json:"runs"`
}

// runAll runs every workload in a fresh child process each (this binary,
// re-executed), so set-up time, peak RSS and GC state are per workload.
func runAll(o options) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	out := resultsFile{Seconds: o.seconds, Scale: o.scale}
	modes := []int{0}
	if o.traced {
		modes = append(modes, 1)
	}
	for r := 0; r < o.runs; r++ {
		seed := o.seed + int64(r)
		for _, s := range specs {
			for _, mode := range modes {
				args := []string{"-workload", s.name, "-seed", fmt.Sprint(seed),
					"-seconds", fmt.Sprint(o.seconds), "-scale", fmt.Sprint(o.scale), "-trace", fmt.Sprint(mode)}
				var stdout bytes.Buffer
				cmd := exec.Command(self, args...)
				cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
				if err := cmd.Run(); err != nil {
					os.Stdout.Write(stdout.Bytes())
					return fmt.Errorf("%s %v: %w", s.name, args, err)
				}
				text := bytes.TrimRight(stdout.Bytes(), "\n")
				cut := bytes.LastIndexByte(text, '\n') + 1
				os.Stdout.Write(text[:cut])
				rec := runRecord{Workload: s.name, Seed: seed, Traced: mode == 1}
				if err := json.Unmarshal(text[cut:], &rec.contractLine); err != nil {
					return fmt.Errorf("%s: last line is not a result: %w", s.name, err)
				}
				out.Runs = append(out.Runs, rec)
				if mode == 1 {
					// The traced run repeats the untraced one (same seed and
					// counts); the throughput it lost is the tracing overhead.
					plain := out.Runs[len(out.Runs)-2].Metrics["tps"].Value
					fmt.Printf("  %-44s %14.4f ratio\n", "obs.trace_overhead_frac",
						1-ratio(rec.Metrics["obs.traced_tps"].Value, plain))
				}
			}
		}
	}
	buf, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(o.outPath), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(o.outPath, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("results written to %s\n", o.outPath)
	return nil
}

// options are the command line.
type options struct {
	workload        string
	seed            int64
	seconds, scale  float64
	trace           int
	traced, compare bool
	runs            int
	outPath         string
}

func main() {
	start := time.Now()
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one workload in this process (default: all, each in a fresh child process)")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: op streams and device jitter derive from it")
	flag.Float64Var(&o.seconds, "seconds", 0, "nominal length of the measured phase; op counts are rate x seconds (default: run_seconds of BENCHMARK.json)")
	flag.IntVar(&o.trace, "trace", 0, "1 = the traced run: per-layer metrics, spans to bench/out/<workload>.trace.jsonl, layer probes")
	flag.BoolVar(&o.traced, "traced", false, "all-workloads mode: follow every run with its traced run")
	flag.IntVar(&o.runs, "runs", 1, "all-workloads mode: repetitions, on seeds seed..seed+runs-1")
	flag.Float64Var(&o.scale, "scale", 1, "multiply data size, caches and op counts (smoke tests only; rows at different scales do not compare)")
	flag.StringVar(&o.outPath, "out", "", "all-workloads mode: results file (default bench/out/results.json)")
	flag.BoolVar(&o.compare, "compare", false, "compare two results files: -compare a.json b.json")
	flag.Parse()
	if err := run(start, o, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(start time.Time, o options, args []string) error {
	m, root, err := loadManifest()
	if err != nil {
		return err
	}
	if o.compare {
		if len(args) != 2 {
			return errors.New("usage: bench -compare a.json b.json")
		}
		return compareFiles(m, args[0], args[1], os.Stdout)
	}
	if o.seconds == 0 {
		o.seconds = float64(m.RunSeconds)
	}
	if o.seconds <= 0 || o.scale <= 0 || o.runs < 1 {
		return errors.New("-seconds, -scale and -runs must be positive")
	}
	if o.workload != "" {
		s, err := findSpec(o.workload)
		if err != nil {
			return err
		}
		return runOne(m, root, runConfig{spec: s.scaled(o.scale), seed: o.seed, seconds: o.seconds,
			traced: o.trace == 1 || o.traced, start: start}, o.scale, os.Stdout)
	}
	if o.outPath == "" {
		o.outPath = filepath.Join(root, "bench", "out", "results.json")
	}
	return runAll(o)
}
