package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"socrates/internal/cdb"
)

// numClients is the closed loop's width: two client goroutines, each waiting
// for its reply before sending the next transaction. Fixed (not derived from
// the host) so rows compare across machines.
const numClients = 2

// warmFrac is the unmeasured warm-up's share of the measured op count.
const warmFrac = 0.10

// maxRetries bounds retries of a first-updater-wins write conflict.
const maxRetries = 10

// spec is one workload: a deployment shape plus a traffic mix.
type spec struct {
	name string
	// sql selects the SQL front door over a Fast (all devices Instant)
	// deployment; otherwise the deployment is the experiments' production
	// shape and traffic is CDB transactions through engine.Tx.
	sql bool
	// memPages / ssdPages size the compute node's RBPEX tiers.
	memPages, ssdPages int
	// sf is the CDB scale factor; rows is the SQL table's loaded row count.
	sf, rows int
	mix      cdb.Mix
	// ratePerClient is the nominal transactions per second one client
	// completes at the commit that defined the benchmark. The measured
	// phase is bounded by op count, not wall clock: each client executes
	// ratePerClient x seconds transactions, however long that takes.
	ratePerClient float64
	// failover reports whether the audit crashes the primary and re-reads
	// every written key on its replacement (workloads that write).
	failover bool
}

// specs are the four workloads; BENCHMARK.json records why each exists.
var specs = []spec{
	{name: "cdb-default", sf: 8000, memPages: 58, ssdPages: 172,
		mix: cdb.DefaultMix, ratePerClient: 400, failover: true},
	{name: "commit-lite", sf: 8000, memPages: 4096,
		mix: cdb.UpdateLiteMix, ratePerClient: 320, failover: true},
	{name: "read-miss", sf: 8000, memPages: 8, ssdPages: 24,
		mix: cdb.ReadOnlyMix, ratePerClient: 560},
	{name: "sql-point", sql: true, rows: 20000, memPages: 8192,
		ratePerClient: 6400, failover: true},
}

func findSpec(name string) (*spec, error) {
	for i := range specs {
		if specs[i].name == name {
			return &specs[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// scaled returns a copy of s with data size, caches and rate multiplied by
// f, keeping the cache:data ratios. f < 1 is for smoke tests only: rows
// reported at different scales do not compare.
func (s spec) scaled(f float64) spec {
	if f == 1 {
		return s
	}
	mul := func(n, min int) int {
		if n == 0 {
			return 0
		}
		if v := int(math.Round(float64(n) * f)); v > min {
			return v
		}
		return min
	}
	s.sf = mul(s.sf, 400)
	s.rows = mul(s.rows, 400)
	// A commit's working set must fit the compute cache: a page evicted
	// mid-commit is refetched at an LSN that is not hardened yet.
	s.memPages = mul(s.memPages, 32)
	s.ssdPages = mul(s.ssdPages, 64)
	s.ratePerClient *= f
	return s
}

// opsPerClient sizes the measured phase for a run of the given length.
func (s *spec) opsPerClient(seconds float64) int {
	if n := int(math.Round(s.ratePerClient * seconds)); n > 20 {
		return n
	}
	return 20
}

// metricDef is one metric declared in BENCHMARK.json.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// manifest is BENCHMARK.json: the single list of metric names, units and
// bounds the harness emits and -compare judges against.
type manifest struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// loadManifest reads BENCHMARK.json from the working directory (the repo
// root when run as the benchmark) or its parent (under `go test`), and
// returns the directory it was found in.
func loadManifest() (m *manifest, root string, err error) {
	var buf []byte
	for _, root = range []string{".", ".."} {
		if buf, err = os.ReadFile(filepath.Join(root, "BENCHMARK.json")); err == nil {
			break
		}
	}
	if err != nil {
		return nil, "", fmt.Errorf("BENCHMARK.json not found (run from the repo root): %w", err)
	}
	m = new(manifest)
	if err := json.Unmarshal(buf, m); err != nil {
		return nil, "", fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return m, root, nil
}
