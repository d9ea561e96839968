// Command socrates-chaos runs the deterministic torture harness
// (internal/chaos) against a full in-process four-tier cluster: a seeded
// schedule of workload operations and fault injections, judged by a
// durability/consistency oracle.
//
// Usage:
//
//	socrates-chaos [-seed N | -seeds N] [-scenario name] [-steps N]
//	               [-duration d] [-json] [-v]
//
// One seed (-seed) replays one schedule byte-for-byte — paste the seed
// from a failing CI run to reproduce it locally. A matrix (-seeds N)
// sweeps seeds 1..N; a seed whose run errors prints "seed N ERROR: err"
// (with -json, an object with an "error" field) and the sweep goes on.
// Exit status: 0 all runs clean, 1 a seed found violations or errored,
// 2 bad usage.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"socrates/internal/chaos"
)

func main() {
	seed := flag.Int64("seed", 0, "run exactly this seed (0 = use -seeds sweep)")
	seeds := flag.Int("seeds", 1, "sweep seeds 1..N (ignored when -seed is set)")
	scenario := flag.String("scenario", "mixed", "step-weight profile: "+strings.Join(chaos.Scenarios(), ", "))
	steps := flag.Int("steps", 0, "schedule length per run (0 = default)")
	duration := flag.Duration("duration", 0, "additional wall-clock bound per run (0 = steps only)")
	asJSON := flag.Bool("json", false, "emit one JSON result object per run")
	verbose := flag.Bool("v", false, "log every schedule step")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: socrates-chaos [-seed N | -seeds N] [-scenario name] [-steps N] [-duration d] [-json] [-v]\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 0 {
		flag.Usage()
		os.Exit(2)
	}
	if _, err := chaos.Scenario(*scenario); err != nil {
		fmt.Fprintf(os.Stderr, "socrates-chaos: %v\n", err)
		os.Exit(2)
	}

	var list []int64
	if *seed != 0 {
		list = []int64{*seed}
	} else {
		for s := int64(1); s <= int64(*seeds); s++ {
			list = append(list, s)
		}
	}

	enc := json.NewEncoder(os.Stdout)
	emit := func(v any) {
		if err := enc.Encode(v); err != nil {
			fmt.Fprintf(os.Stderr, "socrates-chaos: %v\n", err)
			os.Exit(2)
		}
	}
	failed := 0
	for _, s := range list {
		cfg := chaos.Config{Seed: s, Scenario: *scenario, Steps: *steps, Duration: *duration}
		if *verbose {
			cfg.Logf = func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, "seed %d: "+format+"\n", append([]any{s}, args...)...)
			}
		}
		res, err := chaos.Run(cfg)
		switch {
		case err != nil && *asJSON:
			emit(struct {
				Seed     int64  `json:"seed"`
				Scenario string `json:"scenario"`
				Error    string `json:"error"`
			}{s, *scenario, err.Error()})
		case err != nil:
			fmt.Printf("seed %d ERROR: %v\n", s, err)
		case *asJSON:
			emit(res)
		default:
			status := "ok"
			if !res.Ok() {
				status = fmt.Sprintf("FAIL (%d violations)", len(res.Violations))
			}
			fmt.Printf("seed %-4d %-9s hash %s  steps %3d  writes %3d (%d acked, %d failed)  reads %3d  faults %2d  probes %2d  failovers %d  %dms  %s\n",
				res.Seed, res.Scenario, res.ScheduleHash, res.Steps, res.Writes,
				res.Acked, res.Failed, res.Reads, res.Faults, res.Probes,
				res.Failovers, res.ElapsedMS, status)
			for _, v := range res.Violations {
				fmt.Printf("  violation: %s\n", v)
			}
		}
		if err != nil || !res.Ok() {
			failed++
		}
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "socrates-chaos: %d of %d seeds failed — replay any seed above with -seed\n", failed, len(list))
		os.Exit(1)
	}
}
