package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
)

// verdicts of one workload x metric comparison.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved" // run-to-run spread wider than the bound
)

// judge compares the candidate's values of one metric against the base's.
// Both sides are reduced to their median; the spread is each side's
// interquartile range as a share of its median. A spread wider than the
// bound makes the pairing unresolved: it can be called neither worse nor
// unchanged.
func judge(def metricDef, base, cand []float64) (baseMed, candMed, spread float64, verdict string) {
	baseMed, spreadA := spreadOf(base)
	candMed, spreadB := spreadOf(cand)
	spread = spreadA
	if spreadB > spread {
		spread = spreadB
	}
	worseBy := ratio(candMed-baseMed, baseMed)
	if def.Better == "higher" {
		worseBy = -worseBy
	}
	switch {
	case spread > def.Bound:
		verdict = verdictUnresolved
	case worseBy > def.Bound:
		verdict = verdictWorse
	default:
		verdict = verdictOK
	}
	return baseMed, candMed, spread, verdict
}

func readResults(path string) (*resultsFile, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultsFile
	if err := json.Unmarshal(buf, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// values collects one end-to-end metric of one workload over a file's
// untraced runs.
func (f *resultsFile) values(workload, name string) []float64 {
	var out []float64
	for _, r := range f.Runs {
		if r.Workload == workload && !r.Traced {
			if mt, ok := r.Metrics[name]; ok {
				out = append(out, mt.Value)
			}
		}
	}
	return out
}

// compareFiles prints, per workload x end-to-end metric, both medians, the
// candidate:base ratio and the verdict against BENCHMARK.json's bound. It
// returns an error when any pairing is worse.
func compareFiles(m *manifest, basePath, candPath string, w io.Writer) error {
	base, err := readResults(basePath)
	if err != nil {
		return err
	}
	cand, err := readResults(candPath)
	if err != nil {
		return err
	}
	if base.Seconds != cand.Seconds || base.Scale != cand.Scale {
		return fmt.Errorf("runs differ in length or scale (%gs x%g vs %gs x%g): rows do not compare",
			base.Seconds, base.Scale, cand.Seconds, cand.Scale)
	}
	fmt.Fprintf(w, "base %s (a)  candidate %s (b)\n", basePath, candPath)
	fmt.Fprintf(w, "%-12s %-20s %12s %12s %18s %8s %7s  %s\n",
		"workload", "metric", "a median", "b median", "b/a (base a)", "spread", "bound", "verdict")
	worse := 0
	for _, wl := range m.Workloads {
		for _, def := range m.EndToEnd {
			a, b := base.values(wl.Name, def.Name), cand.values(wl.Name, def.Name)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			am, bm, spread, verdict := judge(def, a, b)
			if verdict == verdictWorse {
				worse++
			}
			fmt.Fprintf(w, "%-12s %-20s %12.4f %12.4f %9.3fx of %-6.4g %7.1f%% %6.0f%%  %s\n",
				wl.Name, def.Name, am, bm, ratio(bm, am), am, spread*100, def.Bound*100, verdict)
		}
		for _, r := range cand.Runs {
			if r.Workload == wl.Name && r.Failed > 0 {
				fmt.Fprintf(w, "%-12s seed %d traced %v: %d of %d operations failed\n",
					wl.Name, r.Seed, r.Traced, r.Failed, r.Attempted)
				worse++
			}
		}
	}
	if worse > 0 {
		return errors.New("candidate is worse than base beyond the bound, or failed operations")
	}
	return nil
}
