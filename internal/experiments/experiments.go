// Package experiments regenerates every table and figure of the paper's
// evaluation (§7 and Appendix A) against the reproduction — Tables 1–7 and
// Figure 4. All is the one table of them; the root
// bench suite (BenchmarkPaper), cmd/socrates-bench and this package's
// TestShapes are loops over it, so adding an experiment is one entry here.
// EXPERIMENTS.md records paper-vs-measured.
//
// Scaling: databases are page-count-scaled (a "1 TB" CDB database becomes a
// few thousand rows with the same cache:data ratios), latencies use the
// calibrated device profiles in simdisk, and all headline comparisons are
// ratios, which survive the scaling (see DESIGN.md).
package experiments

import (
	"fmt"
	"math"
	"strings"
	"text/tabwriter"
	"time"

	"socrates/internal/cdb"
	"socrates/internal/cluster"
	"socrates/internal/engine"
	"socrates/internal/hadr"
	"socrates/internal/metrics"
	"socrates/internal/simdisk"
	"socrates/internal/workload"
	"socrates/internal/xstore"
)

// experiment is one entry of the evaluation.
type experiment struct {
	Name string
	Run  func(Options) (report, error)
}

// All lists every experiment, in the order the paper presents them.
var All = []experiment{
	{"table1", table1},
	{"table2", table2},
	{"table3", table3},
	{"table4", table4},
	{"table5", table5},
	{"table6", table6},
	{"figure4", figure4},
	{"table7", table7},
}

// report is one run of an experiment, in every form a driver needs.
type report struct {
	// header and Rows are the table in the paper's layout, cells formatted.
	header []string
	rows   [][]string
	// Values are the numbers behind the rows, named: what `go test -bench`
	// reports as metrics and socrates-bench -json writes.
	Values []value
	// notes are printed under the table: the paper's number beside the
	// measured one, and warnings for targets that depend on the host (a
	// latency ratio) — those never fail a run.
	notes []string
	// Shape is nil when the run shows the paper's shape. It checks only
	// what holds on any host at any load: orderings, work accounting, that
	// the mechanism under test engaged.
	Shape error
}

// value is one named number of a report.
type value struct {
	Name string
	V    float64
}

func (r *report) rowf(format string, args ...any) {
	r.rows = append(r.rows, strings.Split(fmt.Sprintf(format, args...), "\t"))
}

// value records a named number. A ratio over a rate that measured zero is
// no number (and JSON has no spelling for it): it is left out, and the
// experiment's Shape says what went wrong.
func (r *report) value(name string, v float64) {
	if !math.IsNaN(v) && !math.IsInf(v, 0) {
		r.Values = append(r.Values, value{name, v})
	}
}

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// String renders the table, column-aligned, and the notes under it.
func (r report) String() string {
	var b strings.Builder
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, strings.Join(r.header, "\t"))
	for _, row := range r.rows {
		fmt.Fprintln(w, strings.Join(row, "\t"))
	}
	w.Flush()
	for _, n := range r.notes {
		b.WriteString(n + "\n")
	}
	return b.String()
}

// Options tunes experiment cost. Defaults suit `go test -bench`.
type Options struct {
	// Measure is the measurement window per data point.
	Measure time.Duration
	// WarmUp precedes each measurement.
	WarmUp time.Duration
	// SF is the CDB scale factor (rows per scaled table).
	SF int
	// Threads is the default client thread count.
	Threads int
}

// defaults fills unset options.
func (o Options) defaults() Options {
	if o.Measure == 0 {
		o.Measure = 1500 * time.Millisecond
	}
	if o.WarmUp == 0 {
		o.WarmUp = 400 * time.Millisecond
	}
	if o.SF == 0 {
		o.SF = 2000
	}
	if o.Threads == 0 {
		o.Threads = 64
	}
	return o
}

// window is a timed drive of the given client thread count.
func (o Options) window(threads int) workload.Config {
	return workload.Config{Threads: threads, Duration: o.Measure, WarmUp: o.WarmUp}
}

// ladder is the client thread counts a sweep climbs: 1, 2, 4, ... up to max.
func ladder(max int) []int {
	var rungs []int
	for t := 1; t <= max; t *= 2 {
		rungs = append(rungs, t)
	}
	return rungs
}

// --- deployments (real latency profiles) ---

// newSocrates builds a production-shaped Socrates deployment: XIO or DD
// landing zone, LAN fabric, local-SSD caches, HDD-backed XStore.
func newSocrates(name string, lzProfile simdisk.Profile, cores, memPages, ssdPages int) (*cluster.Cluster, error) {
	return cluster.New(cluster.Config{
		Name:            name,
		LZProfile:       lzProfile,
		LZCapacity:      32 << 20,
		ComputeMemPages: memPages,
		ComputeSSDPages: ssdPages,
		PSMemPages:      256,
		PSPullBytes:     1 << 20,
		PrimaryCores:    cores,
		CheckpointEvery: 20 * time.Millisecond,
		XStore:          xstore.Config{Profile: simdisk.HDD},
	})
}

// withSocrates deploys a Socrates cluster, loads a CDB database of sf rows
// into it, hands both to use, and closes the cluster. A primary engine
// found poisoned afterwards fails the run: its numbers would be those of a
// system that had stopped committing.
func withSocrates(name string, lzProfile simdisk.Profile, cores, memPages, ssdPages, sf int,
	use func(*cluster.Cluster, *cdb.Workload) error) error {
	s, err := newSocrates(name, lzProfile, cores, memPages, ssdPages)
	if err != nil {
		return err
	}
	defer s.Close()
	w := cdb.New(sf)
	if err := w.Setup(s.Primary().Engine); err != nil {
		return err
	}
	if err := use(s, w); err != nil {
		return err
	}
	return poisoned(name, s.Primary().Engine)
}

// hadrLagBudget is the baseline's backup lag budget wherever the log backup
// is not the thing under test: large enough never to throttle.
const hadrLagBudget = 64 << 20

// withHADR is withSocrates for the baseline: AZ-link replication and, when
// backupMBps > 0, a log backup into a store whose ingest is capped — the
// baseline's log throughput ceiling (§7.4).
func withHADR(name string, cores int, backupMBps float64, lagBudget int64, sf int,
	use func(*hadr.Cluster, *cdb.Workload) error) error {
	cfg := hadr.Config{
		Name:            name,
		PrimaryCores:    cores,
		LogBackupEvery:  10 * time.Millisecond,
		BackupLagBudget: lagBudget,
	}
	if backupMBps > 0 {
		cfg.Store = xstore.New(xstore.Config{Profile: simdisk.HDD, IngestMBps: backupMBps})
	}
	h, err := hadr.New(cfg)
	if err != nil {
		return err
	}
	defer h.Close()
	w := cdb.New(sf)
	if err := w.Setup(h.Primary().Engine()); err != nil {
		return err
	}
	if err := use(h, w); err != nil {
		return err
	}
	return poisoned(name, h.Primary().Engine())
}

func poisoned(name string, e *engine.Engine) error {
	if failed, cause := e.Failed(); failed {
		return fmt.Errorf("%s: %w: %v", name, engine.ErrEngineFailed, cause)
	}
	return nil
}

// driveCDB runs the mix against an engine with the generic driver.
// When cores > 0, each transaction burns its query-processing CPU through a
// cores-wide gate, making throughput CPU-bound at that core count (the
// Table 2 regime).
func driveCDB(e *engine.Engine, w *cdb.Workload, mix cdb.Mix, cores int,
	meter *metrics.CPUMeter, cfg workload.Config) workload.Metrics {
	var gate chan struct{}
	if cores > 0 {
		gate = make(chan struct{}, cores)
	}
	cfg.Meter = meter
	return workload.Drive(func(id int) workload.Runner {
		return cdb.Runner{C: w.NewClient(id), E: e, Mix: mix, Meter: meter, Gate: gate}
	}, cfg)
}

// --- Table 2: CDB default mix throughput, HADR vs Socrates ---

// table2 runs the CDB default mix on both architectures at equal scale
// (paper: 8 cores, 64 client threads, 1 TB database).
func table2(o Options) (report, error) {
	o = o.defaults()
	var h, s workload.Metrics
	err := withHADR("t2-hadr", 8, 0, hadrLagBudget, o.SF, func(c *hadr.Cluster, w *cdb.Workload) error {
		h = driveCDB(c.Primary().Engine(), w, cdb.DefaultMix, 8, c.PrimaryMeter, o.window(o.Threads))
		return nil
	})
	if err != nil {
		return report{}, err
	}
	// Socrates: cache sized to ~15% of the database (Table 3 config).
	err = withSocrates("t2-soc", simdisk.XIO, 8, 48, 144, o.SF, func(c *cluster.Cluster, w *cdb.Workload) error {
		s = driveCDB(c.Primary().Engine, w, cdb.DefaultMix, 8, c.PrimaryMeter, o.window(o.Threads))
		return nil
	})
	if err != nil {
		return report{}, err
	}

	rep := report{header: []string{"System", "CPU %", "Write TPS", "Read TPS", "Total TPS"}}
	for _, r := range []struct {
		system string
		m      workload.Metrics
	}{{"HADR", h}, {"Socrates", s}} {
		rep.rowf("%s\t%.1f\t%.0f\t%.0f\t%.0f", r.system, r.m.CPUPercent, r.m.WriteTPS(), r.m.ReadTPS(), r.m.TotalTPS())
		key := strings.ToLower(r.system)
		rep.value(key+"-tps", r.m.TotalTPS())
		rep.value(key+"-write-tps", r.m.WriteTPS())
		rep.value(key+"-read-tps", r.m.ReadTPS())
		rep.value(key+"-cpu%", r.m.CPUPercent)
	}
	rep.value("socrates/hadr", s.TotalTPS()/h.TotalTPS())
	rep.notef("Socrates/HADR total TPS ratio: %.2f (paper: 0.95)", s.TotalTPS()/h.TotalTPS())

	switch {
	case h.TotalTPS() <= 0 || s.TotalTPS() <= 0:
		rep.Shape = fmt.Errorf("zero throughput: HADR %.0f, Socrates %.0f", h.TotalTPS(), s.TotalTPS())
	// No transaction fails, both systems commit writes (a zero write rate
	// would mean a poisoned engine), and reads dominate writes (default mix).
	case h.Failed > 0 || s.Failed > 0:
		rep.Shape = fmt.Errorf("failed transactions: HADR %d, Socrates %d", h.Failed, s.Failed)
	case h.WriteTxns == 0 || s.WriteTxns == 0:
		rep.Shape = fmt.Errorf("no writes: HADR %d, Socrates %d", h.WriteTxns, s.WriteTxns)
	case h.ReadTxns < h.WriteTxns || s.ReadTxns < s.WriteTxns:
		rep.Shape = fmt.Errorf("mix shape wrong: HADR %d reads / %d writes, Socrates %d / %d",
			h.ReadTxns, h.WriteTxns, s.ReadTxns, s.WriteTxns)
	// The paper's shape: the two systems are comparable, HADR typically a
	// bit ahead (100% local hits vs remote misses). Generous, so that it
	// holds at the smallest scale.
	case s.TotalTPS() > h.TotalTPS()*3 || h.TotalTPS() > s.TotalTPS()*8:
		rep.Shape = fmt.Errorf("throughputs diverged: socrates %.0f vs hadr %.0f", s.TotalTPS(), h.TotalTPS())
	}
	return rep, nil
}

// --- Tables 3 & 4: cache hit rates ---

// cacheRun is one measured cache-hit experiment.
type cacheRun struct {
	workload              string
	dataPages, cachePages int
	hitPct                float64
}

// report lays out one row of the cache-hit tables; the hit rate must land in
// [minHit, maxHit] percent and the cache in [minRatio, maxRatio] of the data.
func (c cacheRun) report(paper string, minRatio, maxRatio, minHit, maxHit float64) report {
	ratio := float64(c.cachePages) / float64(c.dataPages)
	rep := report{header: []string{"Workload", "Data pages", "Cache pages", "Cache ratio", "Local hit %"}}
	rep.rowf("%s\t%d\t%d\t%.1f%%\t%.1f%%", c.workload, c.dataPages, c.cachePages, ratio*100, c.hitPct)
	rep.value("hit%", c.hitPct)
	rep.value("cache-ratio%", ratio*100)
	rep.value("data-pages", float64(c.dataPages))
	rep.notef("(paper: %s)", paper)
	switch {
	case ratio < minRatio || ratio > maxRatio:
		rep.Shape = fmt.Errorf("cache ratio = %.3f, want %.2f..%.2f", ratio, minRatio, maxRatio)
	case c.hitPct < minHit || c.hitPct > maxHit:
		rep.Shape = fmt.Errorf("hit rate = %.1f%% at a %.1f%% cache, want %.0f..%.0f%%: skew not effective",
			c.hitPct, ratio*100, minHit, maxHit)
	}
	return rep
}

// table3 measures the Socrates primary's local cache hit rate under the
// CDB default mix with a cache ≈ 15% of the database (paper: 52%).
func table3(o Options) (report, error) {
	o = o.defaults()
	// Estimate data pages from a scouting engine, then size the cache.
	run := cacheRun{workload: "CDB default", dataPages: estimateCDBDataPages(o.SF)}
	run.cachePages = run.dataPages * 15 / 100
	mem := run.cachePages / 4

	err := withSocrates("t3-soc", simdisk.XIO, 8, mem, run.cachePages-mem, o.SF, func(s *cluster.Cluster, w *cdb.Workload) error {
		cache := s.Primary().Pages().Cache()
		cache.ResetStats()
		driveCDB(s.Primary().Engine, w, cdb.DefaultMix, 8, s.PrimaryMeter, o.window(16))
		run.hitPct = 100 * cache.HitRate()
		return nil
	})
	if err != nil {
		return report{}, err
	}
	// Shape: well above the cache ratio, below perfect.
	return run.report("52% at 15% cache", 0.10, 0.20, 25, 98), nil
}

// table4 measures the hit rate under the TPC-E-flavoured workload with a
// cache ≈ 1% of the database (paper: 32%).
func table4(o Options) (report, error) {
	o = o.defaults()
	customers := o.SF * 3
	run := cacheRun{workload: "TPC-E", dataPages: estimateTPCEDataPages(customers)}
	run.cachePages = run.dataPages / 75 // ≈ 1.3%, the paper's ratio
	if run.cachePages < 4 {
		run.cachePages = 4
	}
	mem := run.cachePages / 4
	if mem < 1 {
		mem = 1
	}

	s, err := newSocrates("t4-soc", simdisk.XIO, 8, mem, run.cachePages-mem)
	if err != nil {
		return report{}, err
	}
	defer s.Close()
	run.hitPct, err = tpceHitPct(s, customers, o)
	if err != nil {
		return report{}, err
	}
	// Shape: far above the cache fraction.
	return run.report("32% at ~1% cache", 0, 0.05, 10, 100), nil
}

// --- Table 5: update-heavy log throughput ---

// logRun is one system's side of Table 5. The drive commits a fixed
// transaction count instead of racing a wall-clock window, so commits,
// logBytes and throttles are functions of the work, not of scheduler
// fairness; the shape check reads only those. logMBps and cpuPct remain
// machine-dependent display values.
type logRun struct {
	logMBps, cpuPct float64
	commits         int64 // write transactions committed (fixed per drive)
	logBytes        int64 // log bytes flushed committing them
	throttles       int64 // backup throttle stalls (HADR only: no throttle exists on Socrates' log path)
}

// table5LagBudget is the HADR backup lag budget for Table 5: small
// against the fixed drive's log volume, so the backup throttle must engage
// on any machine — the work overruns the budget by construction, not by
// outracing a timer.
const table5LagBudget = 64 << 10

// table5Work returns the fixed write-transaction count for one Table 5
// drive: enough MaxLog commits that the produced log overruns the HADR
// backup lag budget many times over.
func table5Work(o Options) int64 {
	w := int64(o.Threads) * 40
	if w < 1200 {
		w = 1200
	}
	return w
}

// measureTable5 saturates both systems with the max-log CDB mix (paper: 16
// cores, 256 clients). HADR's log production throttles on its backup
// egress; Socrates backups are XStore snapshots, so its log runs free.
//
// Both systems commit the same fixed number of MaxLog transactions
// (deterministic work accounting); elapsed time is whatever that work
// takes, which keeps the accounting fields of logRun stable on loaded
// machines where fixed-window throughput races invert.
func measureTable5(o Options) (h, s logRun, err error) {
	work := workload.Config{
		Threads:  o.Threads,
		Count:    table5Work(o),
		Duration: 60 * time.Second, // safety bound; a tripped bound surfaces as commits < work
	}
	// HADR: the capped log backup is the ceiling.
	err = withHADR("t5-hadr", 16, 3, table5LagBudget, o.SF/2, func(c *hadr.Cluster, w *cdb.Workload) error {
		_, before := c.Writer().Stats()
		throttlesBefore := c.Throttles()
		m := driveCDB(c.Primary().Engine(), w, cdb.MaxLogMix, 16, c.PrimaryMeter, work)
		_, after := c.Writer().Stats()
		h = logRun{logMBps: mbps(after-before, m.Elapsed), cpuPct: c.PrimaryMeter.Utilization(),
			commits: m.WriteTxns, logBytes: after - before, throttles: c.Throttles() - throttlesBefore}
		return nil
	})
	if err != nil {
		return h, s, err
	}
	err = withSocrates("t5-soc", simdisk.XIO, 16, 256, 512, o.SF/2, func(c *cluster.Cluster, w *cdb.Workload) error {
		_, before := c.Primary().Writer().Stats()
		m := driveCDB(c.Primary().Engine, w, cdb.MaxLogMix, 16, c.PrimaryMeter, work)
		_, after := c.Primary().Writer().Stats()
		s = logRun{logMBps: mbps(after-before, m.Elapsed), cpuPct: c.PrimaryMeter.Utilization(),
			commits: m.WriteTxns, logBytes: after - before}
		return nil
	})
	return h, s, err
}

// table5 asserts its mechanism on the work accounting, not on the two
// separately-timed MB/s rates (compared against each other, those invert on
// loaded machines):
//   - HADR's log production is coupled to its backup: the fixed work
//     overruns the lag budget by construction, so the throttle MUST have
//     engaged, on any machine, at any load.
//   - Socrates commits the identical work with its log decoupled from
//     backups (snapshot backups; no throttle exists on its path).
//   - Both systems produce comparable log volume for identical work, so
//     the rates the table reports are measuring the same bytes.
func table5(o Options) (report, error) {
	o = o.defaults()
	h, s, err := measureTable5(o)
	if err != nil {
		return report{}, err
	}
	rep := report{header: []string{"System", "Log MB/s", "CPU %"}}
	rep.rowf("HADR\t%.2f\t%.1f", h.logMBps, h.cpuPct)
	rep.rowf("Socrates\t%.2f\t%.1f", s.logMBps, s.cpuPct)
	rep.value("hadr-MB/s", h.logMBps)
	rep.value("socrates-MB/s", s.logMBps)
	rep.value("hadr-cpu%", h.cpuPct)
	rep.value("socrates-cpu%", s.cpuPct)
	rep.value("socrates/hadr", s.logMBps/h.logMBps)
	rep.value("hadr-throttles", float64(h.throttles))
	rep.notef("Socrates/HADR log ratio: %.2f (paper: 1.58)", s.logMBps/h.logMBps)

	work := table5Work(o)
	switch {
	// The drive is work-bounded and credits aborted attempts back to the
	// budget: both systems must have committed exactly the fixed work.
	case h.commits != work || s.commits != work:
		rep.Shape = fmt.Errorf("fixed work did not complete: HADR %d, Socrates %d of %d commits", h.commits, s.commits, work)
	// Calibration guard: the fixed work must overrun the HADR lag budget
	// many times over, or the throttle claim below proves nothing.
	case h.logBytes < table5LagBudget*4:
		rep.Shape = fmt.Errorf("HADR log volume %d B too small against lag budget %d B; raise table5Work", h.logBytes, table5LagBudget)
	// The headline mechanism.
	case h.throttles == 0:
		rep.Shape = fmt.Errorf("HADR backup throttle never engaged over %d commits / %d log bytes", h.commits, h.logBytes)
	// Identical work, shared WAL encoding: log volumes must be in the
	// same ballpark (guards against one side silently dropping records).
	case s.logBytes > h.logBytes*2 || h.logBytes > s.logBytes*2:
		rep.Shape = fmt.Errorf("log volumes diverged for identical work: HADR %d B, Socrates %d B", h.logBytes, s.logBytes)
	}
	return rep, nil
}

// --- Table 6 / Figure 4 / Table 7: XIO vs DirectDrive (Appendix A) ---

// lzServices are the two landing-zone services Appendix A compares: XIO
// first, DirectDrive second, wherever results are indexed by service.
var lzServices = []struct {
	name    string
	profile simdisk.Profile
}{
	{"XIO", simdisk.XIO},
	{"DD", simdisk.DirectDrive},
}

// updateLite drives the UpdateLite mix from the given client thread count
// against a fresh deployment on the given landing zone (fresh per data
// point: version chains and table growth from an earlier point must not
// distort a later one), and reports the drive and the log bytes it flushed.
func updateLite(name string, lz simdisk.Profile, threads int, o Options) (m workload.Metrics, logBytes int64, cpuPct float64, err error) {
	err = withSocrates(name, lz, 64, 256, 0, o.SF/4, func(s *cluster.Cluster, w *cdb.Workload) error {
		_, before := s.Primary().Writer().Stats()
		m = driveCDB(s.Primary().Engine, w, cdb.UpdateLiteMix, 0, s.PrimaryMeter, o.window(threads))
		_, after := s.Primary().Writer().Stats()
		logBytes, cpuPct = after-before, s.PrimaryMeter.Utilization()
		if m.Failed > 0 {
			return fmt.Errorf("%s: %d transactions failed", name, m.Failed)
		}
		return nil
	})
	return m, logBytes, cpuPct, err
}

// measureTable6 measures single-client UpdateLite commit latency with the
// landing zone on XIO vs DirectDrive (paper: median 3300 µs vs 800 µs); the
// summaries come back in lzServices order.
func measureTable6(o Options) ([]metrics.Summary, error) {
	var stats []metrics.Summary
	for _, svc := range lzServices {
		m, _, _, err := updateLite("t6-"+svc.name, svc.profile, 1, o)
		if err != nil {
			return nil, err
		}
		stats = append(stats, m.WriteLatency.Summarize())
	}
	return stats, nil
}

func table6(o Options) (report, error) {
	stats, err := measureTable6(o.defaults())
	if err != nil {
		return report{}, err
	}
	rep := report{header: []string{"Service", "STDEV (us)", "Min (us)", "Median (us)", "Max (us)"}}
	for i, s := range stats {
		name := lzServices[i].name
		rep.rowf("%s\t%d\t%d\t%d\t%d", name, s.Stdev.Microseconds(), s.Min.Microseconds(),
			s.Median.Microseconds(), s.Max.Microseconds())
		key := strings.ToLower(name)
		rep.value(key+"-median-us", float64(s.Median.Microseconds()))
		rep.value(key+"-min-us", float64(s.Min.Microseconds()))
		rep.value(key+"-max-us", float64(s.Max.Microseconds()))
		rep.value(key+"-stdev-us", float64(s.Stdev.Microseconds()))
	}
	xio, dd := stats[0], stats[1]
	ratio := float64(xio.Median) / float64(dd.Median)
	rep.value("xio/dd", ratio)
	rep.notef("XIO/DD median ratio: %.1f (paper: 4.1; XIO min 2518 / median 3300 / max 36864 us, DD 484 / 800 / 39857)", ratio)
	switch {
	case xio.Count == 0 || dd.Count == 0:
		rep.Shape = fmt.Errorf("no latency samples")
	case ratio < 2:
		rep.Shape = fmt.Errorf("XIO/DD median ratio = %.1f, want >= 2 (paper ~4x)", ratio)
	case dd.Min >= xio.Min:
		rep.Shape = fmt.Errorf("DD min %dus >= XIO min %dus", dd.Min.Microseconds(), xio.Min.Microseconds())
	}
	return rep, nil
}

// figure4 sweeps UpdateLite throughput over client thread counts, up to
// o.Threads, for both landing-zone services.
func figure4(o Options) (report, error) {
	o = o.defaults()
	rep := report{header: []string{"Service", "Threads", "UpdateLite TPS"}}
	var first, last [2]float64 // TPS at 1 and at o.Threads clients, in lzServices order
	for i, svc := range lzServices {
		for _, threads := range ladder(o.Threads) {
			m, _, _, err := updateLite(fmt.Sprintf("f4-%s-%d", svc.name, threads), svc.profile, threads, o)
			if err != nil {
				return report{}, err
			}
			rep.rowf("%s\t%d\t%.0f", svc.name, threads, m.TotalTPS())
			rep.value(fmt.Sprintf("%s-%dthread-tps", strings.ToLower(svc.name), threads), m.TotalTPS())
			if threads == 1 {
				first[i] = m.TotalTPS()
			}
			last[i] = m.TotalTPS()
		}
	}
	rep.notef("(paper: TPS grows with threads; DD above XIO at every point)")
	for i, svc := range lzServices {
		// Throughput grows with threads (group commit).
		if last[i] <= first[i] {
			rep.Shape = fmt.Errorf("%s: TPS did not scale with threads: %.0f at 1, %.0f at %d",
				svc.name, first[i], last[i], o.Threads)
		}
	}
	if first[1] <= first[0] {
		rep.Shape = fmt.Errorf("DD single-thread TPS %.0f <= XIO %.0f", first[1], first[0])
	}
	return rep, nil
}

// table7 searches the client thread count at which each service reaches a
// target log rate and reports the primary CPU it burns there (paper: XIO
// needs 8x the threads and ~3x the CPU of DD for the same 70 MB/s). The
// target is the paper's 70 MB/s scaled to the client budget — 2 MB/s at the
// default 64 threads — and the search climbs to twice that budget.
func table7(o Options) (report, error) {
	o = o.defaults()
	target := float64(o.Threads) / 32
	rep := report{header: []string{"Service", "Threads", "Log MB/s", "CPU %"}}
	var reached [2]int
	var cpuPerMB [2]float64
	for i, svc := range lzServices {
		var rate, cpuPct float64
		for _, threads := range ladder(2 * o.Threads) {
			_, logBytes, cpu, err := updateLite(fmt.Sprintf("t7-%s-%d", svc.name, threads), svc.profile, threads, o)
			if err != nil {
				return report{}, err
			}
			reached[i], rate, cpuPct = threads, mbps(logBytes, o.Measure+o.WarmUp), cpu
			if rate >= target {
				break
			}
		}
		cpuPerMB[i] = cpuPct / rate
		rep.rowf("%s\t%d\t%.2f\t%.1f", svc.name, reached[i], rate, cpuPct)
		key := strings.ToLower(svc.name)
		rep.value(key+"-threads", float64(reached[i]))
		rep.value(key+"-MB/s", rate)
		rep.value(key+"-cpu%", cpuPct)
	}
	rep.notef("XIO needs %.0fx threads and %.1fx CPU per MB/s to log %.2f MB/s (paper: 8x threads, ~3x CPU)",
		float64(reached[0])/float64(reached[1]), cpuPerMB[0]/cpuPerMB[1], target)
	// XIO needs at least as many threads and burns more CPU per MB/s.
	switch {
	case reached[0] < reached[1]:
		rep.Shape = fmt.Errorf("XIO threads %d < DD threads %d", reached[0], reached[1])
	case cpuPerMB[0] <= cpuPerMB[1]:
		rep.Shape = fmt.Errorf("XIO CPU per MB/s (%.2f) <= DD (%.2f)", cpuPerMB[0], cpuPerMB[1])
	}
	return rep, nil
}

func mbps(bytes int64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(bytes) / (1 << 20) / d.Seconds()
}
