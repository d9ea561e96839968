package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"socrates/internal/obs"
	"socrates/internal/page"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is everything one run of one workload produced. Metrics holds
// every number the harness computed; the contract line prints the subset
// BENCHMARK.json declares for the run's mode.
type result struct {
	Workload  string
	Seed      int64
	Traced    bool
	Attempted int
	Failed    int
	Metrics   map[string]metric
	// Samples is the sample count behind each percentile metric, and
	// TailQ the percentile actually reported under a *_p99_* name when the
	// run was too short to support p99.
	Samples map[string]int
	TailQ   map[string]float64
	// Slices is how many slices of the measured phase the end-to-end
	// medians were taken over.
	Slices int
}

func (r *result) set(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// setLatency reports a sample set's median and tail in milliseconds under
// prefix_p50_ms / prefix_p99_ms, with the sample count beside them.
func (r *result) setLatency(prefix string, l latencies) {
	s := l.summarize()
	r.set(prefix+"_p50_ms", s.p50, "ms")
	r.set(prefix+"_p99_ms", s.tail, "ms")
	r.Samples[prefix+"_p50_ms"], r.Samples[prefix+"_p99_ms"] = s.n, s.n
	if s.tailQ != 0.99 {
		r.TailQ[prefix+"_p99_ms"] = s.tailQ
	}
}

// setSpanUS reports a span class's median (and optionally tail) duration in
// microseconds.
func (r *result) setSpanUS(prefix string, l latencies, withTail bool) {
	s := l.summarize()
	r.set(prefix+"_us_p50", s.p50*1e3, "us")
	r.Samples[prefix+"_us_p50"] = s.n
	if withTail {
		r.set(prefix+"_us_p99", s.tail*1e3, "us")
		r.Samples[prefix+"_us_p99"] = s.n
	}
}

// runConfig is one run's parameters.
type runConfig struct {
	spec    spec
	seed    int64
	seconds float64
	traced  bool
	// start is when the process began: setup_s runs from it.
	start time.Time
	// outDir receives <workload>.trace.jsonl on traced runs.
	outDir string
}

// runPhase runs every client's generator for n ops, concurrently, and waits
// for all of them. ps is nil for the warm-up.
func runPhase(clients []*client, gens []*generator, n int, ps *phaseState) {
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(c *client, g *generator) {
			defer wg.Done()
			c.run(g, n, ps)
		}(c, gens[i])
	}
	wg.Wait()
}

// Shape of the measured phase.
const (
	// numSlices is how many equal-op-count slices the measured phase is cut
	// into; end-to-end rates and percentiles are medians over them. Eight
	// keeps at least 1,000 latency samples in every slice of every
	// workload at the declared run length, so a slice's p99 has ten
	// samples beyond it.
	numSlices = 8
	// deadlineFactor bounds the measured phase at this multiple of its
	// nominal length, whatever the host does.
	deadlineFactor = 2.5
)

// runWorkload deploys, loads, warms up, measures and audits one workload.
func runWorkload(cfg runConfig) (*result, error) {
	s := &cfg.spec
	res := &result{Workload: s.name, Seed: cfg.seed, Traced: cfg.traced,
		Metrics: map[string]metric{}, Samples: map[string]int{}, TailQ: map[string]float64{}}

	d, err := deploy(s, cfg.seed)
	if err != nil {
		return nil, fmt.Errorf("deploy %s: %w", s.name, err)
	}
	// failover replaces the primary but not d, so closing d closes it all.
	defer d.close()

	n := s.opsPerClient(cfg.seconds)
	warm := int(float64(n) * warmFrac)
	if warm < 1 {
		warm = 1
	}
	clients := make([]*client, numClients)
	gens := make([]*generator, numClients)
	for i := range clients {
		clients[i] = newClient(i, d)
		gens[i] = newGenerator(s, cfg.seed, i, phaseWarm, 0)
	}
	runPhase(clients, gens, warm, nil)
	// Start every window from a collected heap, so GC state at the window's
	// start does not depend on how the load happened to allocate.
	runtime.GC()
	res.set("setup_s", time.Since(cfg.start).Seconds(), "s")

	base := time.Now()
	for i, c := range clients {
		gens[i] = newGenerator(s, cfg.seed, i, phaseMeasure, gens[i].insertSeq)
		c.samples = make([]sample, 0, n)
		if cfg.traced {
			c.rec = newRecorder(i, base, n*5)
		}
	}
	ps := &phaseState{perSlice: (n + numSlices - 1) / numSlices,
		deadline: base.Add(time.Duration(deadlineFactor * cfg.seconds * float64(time.Second)))}
	before := takeSnapshot(d)
	runPhase(clients, gens, n, ps)
	after := takeSnapshot(d)

	// Background tiers finish: page servers apply through the hardened end,
	// then checkpoints drain to XStore (so write amplification is read
	// after the last destage, not mid-flight).
	lagLSN := d.cl.LZ.HardenedEnd().Distance(minApplied(d))
	catchStart := time.Now()
	if err := d.cl.WaitForCatchUp(30 * time.Second); err != nil {
		return nil, err
	}
	catchup := time.Since(catchStart)
	drained := after
	if cfg.traced {
		if err := d.cl.WaitCheckpointDrain(30 * time.Second); err != nil {
			return nil, err
		}
		drained = takeSnapshot(d)
	}

	w := window{before, after}
	agg := aggregate(clients)
	for _, c := range clients {
		if c.firstFailure != "" {
			fmt.Fprintln(os.Stderr, "bench: failed:", c.firstFailure)
		}
	}
	endToEnd(res, agg, clients[0].marks)
	if cfg.traced {
		recs := make([]*recorder, len(clients))
		for i, c := range clients {
			recs[i] = c.rec
			c.rec = nil
		}
		perLayer(res, d, w, window{before, drained}, agg, recs)
		res.set("pageserver.apply_lag_lsn_end", float64(lagLSN), "count")
		res.set("pageserver.catchup_ms", catchup.Seconds()*1e3, "ms")
		if err := liveProbes(res, d); err != nil {
			return nil, err
		}
		if err := writeTrace(filepath.Join(cfg.outDir, s.name+".trace.jsonl"), recs); err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
	}

	// Correctness audit, outside the timed window: every row the harness
	// wrote is read back on the primary, then again on a fresh primary
	// after a crash. An acknowledged commit must survive both.
	shadow := mergeShadows(clients)
	keys := make([]shadowKey, 0, len(shadow))
	for k := range shadow {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].table != keys[j].table {
			return keys[i].table < keys[j].table
		}
		return keys[i].key < keys[j].key
	})
	bad, err := verify(d, keys, shadow)
	if err != nil {
		return nil, err
	}
	verified := len(keys)
	var failoverMS float64
	if s.failover {
		took, err := d.failover()
		if err != nil {
			return nil, fmt.Errorf("failover: %w", err)
		}
		failoverMS = took.Seconds() * 1e3
		bad2, err := verify(d, keys, shadow)
		if err != nil {
			return nil, fmt.Errorf("after failover: %w", err)
		}
		bad += bad2
		verified += len(keys)
	}
	res.set("cluster.failover_ms", failoverMS, "ms")
	res.set("cluster.verify_keys", float64(verified), "count")
	res.set("cluster.verify_failed", float64(bad), "count")

	res.Attempted = agg.attempted + verified
	res.Failed = agg.failed + bad
	_, maxRSS := rusage()
	res.set("peak_rss_mb", float64(maxRSS)/1024, "MB")
	return res, nil
}

// minApplied is the lowest applied LSN across the page servers.
func minApplied(d *deployment) (low page.LSN) {
	for i, srv := range d.cl.PageServers() {
		if lsn := srv.AppliedLSN(); i == 0 || lsn.Before(low) {
			low = lsn
		}
	}
	return low
}

// totals is the clients' measured-phase results, summed.
type totals struct {
	samples           []sample
	read, write, all  latencies
	attempted, failed int
	tries, aborts     int
	userBytes         int64
}

func aggregate(clients []*client) totals {
	var t totals
	for _, c := range clients {
		t.samples = append(t.samples, c.samples...)
		t.attempted += c.attempted
		t.failed += c.failed
		t.tries += c.tries
		t.aborts += c.aborts
		t.userBytes += c.userBytes
	}
	for _, sm := range t.samples {
		t.all = append(t.all, sm.lat)
		if sm.write {
			t.write = append(t.write, sm.lat)
		} else {
			t.read = append(t.read, sm.lat)
		}
	}
	return t
}

// medianOf returns the median of xs (0 when empty).
func medianOf(xs []float64) float64 {
	m, _ := spreadOf(xs)
	return m
}

// endToEnd computes what a user of the system sees. Every number is the
// median over the measured phase's slices: a slice's throughput and per-txn
// costs come from the marks at its two boundaries, its latency percentiles
// from the transactions both clients ran in it.
func endToEnd(res *result, t totals, marks []mark) {
	var tps, cpu, sim, allocs, allocKB []float64
	for i := 1; i < len(marks); i++ {
		a, b := marks[i-1], marks[i]
		txns := float64(b.committed - a.committed)
		if txns == 0 {
			continue
		}
		tps = append(tps, txns/b.at.Sub(a.at).Seconds())
		cpu = append(cpu, float64((b.cpu-a.cpu).Microseconds())/txns)
		sim = append(sim, float64((b.simCPU-a.simCPU).Microseconds())/txns)
		allocs = append(allocs, float64(b.mallocs-a.mallocs)/txns)
		allocKB = append(allocKB, float64(b.allocBytes-a.allocBytes)/1024/txns)
	}
	res.set("tps", medianOf(tps), "txn/s")
	res.set("cpu_us_per_txn", medianOf(cpu), "us")
	res.set("sim_cpu_us_per_txn", medianOf(sim), "us")
	res.set("allocs_per_txn", medianOf(allocs), "count")
	res.set("alloc_kb_per_txn", medianOf(allocKB), "KB")

	bySlice := map[int32]latencies{}
	for _, sm := range t.samples {
		bySlice[sm.slice] = append(bySlice[sm.slice], sm.lat)
	}
	var p50, tail []float64
	perSlice, tailQ := 0, 0.99
	for _, l := range bySlice {
		sum := l.summarize()
		p50, tail = append(p50, sum.p50), append(tail, sum.tail)
		if perSlice == 0 || sum.n < perSlice {
			perSlice, tailQ = sum.n, sum.tailQ
		}
	}
	res.set("txn_p50_ms", medianOf(p50), "ms")
	res.set("txn_p99_ms", medianOf(tail), "ms")
	res.Samples["txn_p50_ms"], res.Samples["txn_p99_ms"] = perSlice, perSlice
	res.Slices = len(bySlice)
	if tailQ != 0.99 {
		res.TailQ["txn_p99_ms"] = tailQ
	}
}

// perLayer computes the traced run's per-layer metrics. w spans the
// measured window; wd ends after the checkpoint drain and feeds the XStore
// amplification numbers.
func perLayer(res *result, d *deployment, w, wd window, t totals, recs []*recorder) {
	txns := float64(len(t.all))
	writes := float64(len(t.write))

	// client: the per-class latencies the end-to-end txn_* metrics blend.
	res.setLatency("client.read", t.read)
	res.setLatency("client.write", t.write)
	res.set("client.read_samples", float64(len(t.read)), "count")
	res.set("client.write_samples", float64(len(t.write)), "count")
	// The traced run's throughput, by the end-to-end estimator: what it
	// lost against the untraced run's tps is the tracing overhead.
	res.set("obs.traced_tps", res.Metrics["tps"].Value, "txn/s")

	// sqlengine and engine: harness spans around the exported calls.
	dur := durations(recs)
	res.setSpanUS("sqlengine.parse", dur[spParse], false)
	res.setSpanUS("sqlengine.select", dur[spSelect], false)
	res.setSpanUS("sqlengine.update", dur[spUpdate], false)
	res.setSpanUS("sqlengine.insert", dur[spInsert], false)
	res.set("sqlengine.statements", w.counter("compute.sql.statements"), "count")
	res.setSpanUS("engine.get", dur[spGet], false)
	res.setSpanUS("engine.scan", dur[spScan], false)
	res.setSpanUS("engine.put", dur[spPut], false)
	res.setSpanUS("engine.commit", dur[spCommit], true)
	res.set("engine.abort_frac", ratio(float64(t.aborts), float64(t.tries)), "ratio")
	var self latencies
	for _, r := range recs {
		st := selfTimes(r.spans)
		for i, s := range r.spans {
			if s.name == spTxn {
				self = append(self, st[i])
			}
		}
	}
	res.setSpanUS("engine.txn_self", self, false)

	// compute: LogWriter and the GetPage@LSN client side.
	logBytes := float64(w.b.logBytes - w.a.logBytes)
	res.set("compute.logwriter.blocks", float64(w.b.logBlocks-w.a.logBlocks), "count")
	res.set("compute.logwriter.bytes", logBytes, "B")
	res.set("compute.logwriter.bytes_per_write_txn", ratio(logBytes, writes), "B")
	res.set("compute.logwriter.records_per_flush",
		ratio(w.counter("lz.batch.records"), w.counter("lz.batch.flushes")), "count")
	res.set("compute.logwriter.coalesced", float64(w.b.coalesced-w.a.coalesced), "count")
	res.set("compute.logwriter.batch_wait_us_p50", w.hist("lz.batch.wait").quantileUS(0.5), "us")
	commit, getpage := w.hist("compute.commit.latency"), w.hist("compute.getpage.latency")
	res.set("compute.commit_us_p50", commit.quantileUS(0.5), "us")
	res.set("compute.commit_us_p99", commit.quantileUS(0.99), "us")
	res.set("compute.getpage_us_p50", getpage.quantileUS(0.5), "us")
	res.set("compute.getpage_us_p99", getpage.quantileUS(0.99), "us")
	res.set("compute.fetches_per_txn", ratio(float64(w.b.fetches-w.a.fetches), txns), "count")

	// rbpex: the compute node's cache.
	mem, ssd, miss := float64(w.b.memHits-w.a.memHits), float64(w.b.ssdHits-w.a.ssdHits), float64(w.b.misses-w.a.misses)
	res.set("rbpex.mem_hits", mem, "count")
	res.set("rbpex.ssd_hits", ssd, "count")
	res.set("rbpex.misses", miss, "count")
	res.set("rbpex.hit_frac", ratio(mem+ssd, mem+ssd+miss), "ratio")

	// netmux: the inter-tier fabric.
	hits, misses := w.counter("netmux.coalesce.hits"), w.counter("netmux.coalesce.misses")
	res.set("netmux.coalesce_hit_frac", ratio(hits, hits+misses), "ratio")
	res.set("netmux.queue_wait_us_p50", w.hist("netmux.queue.wait").quantileUS(0.5), "us")
	res.set("netmux.backpressure_trips", w.counter("netmux.backpressure.trips"), "count")
	res.set("netmux.late_drops", w.counter("netmux.late.drops"), "count")

	// xlog: landing zone and dissemination.
	lzw := w.hist("lz.write.latency")
	res.set("xlog.lz_write_us_p50", lzw.quantileUS(0.5), "us")
	res.set("xlog.lz_write_us_p99", lzw.quantileUS(0.99), "us")
	res.set("xlog.lz_write_blocks", w.counter("lz.write.blocks"), "count")
	res.set("xlog.lz_write_bytes", w.counter("lz.write.bytes"), "B")
	res.set("xlog.lz_stalls", float64(w.b.lzStalls-w.a.lzStalls), "count")
	res.set("xlog.feed_blocks", w.counter("xlog.feed.blocks"), "count")
	res.set("xlog.feed_stale", w.counter("xlog.feed.stale"), "count")
	res.set("xlog.gap_fills", float64(w.b.gap-w.a.gap), "count")
	res.set("xlog.promote_us_p50", w.hist("xlog.promote.latency").quantileUS(0.5), "us")
	res.set("xlog.pull_us_p50", w.hist("xlog.pull.latency").quantileUS(0.5), "us")
	res.set("xlog.destage_blocks", w.counter("xlog.destage.blocks"), "count")

	// simdisk: replication amplification under the landing zone.
	res.set("simdisk.lz_device_writes_per_commit", ratio(float64(w.b.lzDevWrites-w.a.lzDevWrites), writes), "count")
	res.set("simdisk.lz_bytes_per_log_byte", ratio(float64(w.b.lzDevBytes-w.a.lzDevBytes), logBytes), "ratio")

	// pageserver: serve and apply sides.
	res.set("pageserver.served", float64(w.b.psServed-w.a.psServed), "count")
	res.set("pageserver.getpage_waits", float64(w.b.psWaits-w.a.psWaits), "count")
	res.set("pageserver.applies", float64(w.b.psApplies-w.a.psApplies), "count")
	res.set("pageserver.apply_pages", w.counter("pageserver.apply.pages"), "count")
	psGet := w.hist("pageserver.getpage.latency")
	res.set("pageserver.getpage_us_p50", psGet.quantileUS(0.5), "us")
	res.set("pageserver.getpage_us_p99", psGet.quantileUS(0.99), "us")
	res.set("pageserver.getpage_wait_us_p50", w.hist("pageserver.getpage.wait").quantileUS(0.5), "us")
	res.set("pageserver.apply_us_p50", w.hist("pageserver.apply.latency").quantileUS(0.5), "us")
	psHit := float64(w.b.psMemHits-w.a.psMemHits) + float64(w.b.psSSDHits-w.a.psSSDHits)
	res.set("pageserver.rbpex_hit_frac", ratio(psHit, psHit+float64(w.b.psMisses-w.a.psMisses)), "ratio")

	// xstore: write and space amplification of checkpoint + destage, read
	// after the drain. Live user bytes are the loaded rows plus the rows
	// inserted since; an update replaces a value of about its own size.
	res.set("xstore.read_ops", float64(wd.b.xsReads-wd.a.xsReads), "count")
	res.set("xstore.write_ops", float64(wd.b.xsWrites-wd.a.xsWrites), "count")
	res.set("xstore.write_us_p50", wd.hist("xstore.write.latency").quantileUS(0.5), "us")
	res.set("xstore.bytes_written_per_user_byte",
		ratio(float64(wd.b.xsBytesWrote-wd.a.xsBytesWrote), float64(t.userBytes)), "ratio")
	res.set("xstore.live_bytes_per_user_byte",
		ratio(float64(wd.b.xsLive), float64(d.userBytes+t.userBytes)), "ratio")

	// obs wait plane: time work waited, per class, per transaction.
	for _, class := range obs.WaitClasses() {
		name := class.String()
		res.set("wait."+name+".ms_per_txn", ratio(float64(w.b.waitNS[name]-w.a.waitNS[name])/1e6, txns), "ms")
	}

	// Go runtime.
	res.set("go.gc_cycles", float64(w.b.gcCycles-w.a.gcCycles), "count")
	res.set("go.gc_pause_ms_total", float64(w.b.gcPauseNS-w.a.gcPauseNS)/1e6, "ms")
	res.set("go.heap_inuse_mb_end", float64(w.b.heapInuse)/(1<<20), "MB")
}

// liveProbes are the single-client probes that need the loaded deployment:
// how many cache lookups one point read and one short range read cost.
func liveProbes(res *result, d *deployment) error {
	cache := func() int64 {
		m, s, miss := d.cl.Primary().Pages().Cache().Stats()
		return m + s + miss
	}
	res.set("engine.pages_per_get", 0, "count")
	res.set("sqlengine.range_pages_per_row", 0, "count")
	if d.spec.sql {
		// A 20-row primary-key range: rows examined per row returned.
		const span = 20
		sess := d.db.Session()
		before := cache()
		rows := 0
		for lo := 0; lo+span <= d.spec.rows && lo < 10*span; lo += span {
			q := fmt.Sprintf("SELECT v FROM t WHERE id >= %d AND id < %d", lo, lo+span)
			r, err := sess.ExecContext(context.Background(), q)
			if err != nil {
				return fmt.Errorf("range probe: %w", err)
			}
			rows += len(r.Rows)
		}
		res.set("sqlengine.range_pages_per_row", ratio(float64(cache()-before), float64(rows)), "count")
		return nil
	}
	const gets = 200
	e := d.engine()
	var kb [8]byte
	before := cache()
	for i := 0; i < gets; i++ {
		tx := e.BeginRO()
		_, _, err := tx.Get(cdbTables[tblLean].name, cdbKey(&kb, (i*37)%d.spec.sf))
		tx.Abort()
		if err != nil {
			return fmt.Errorf("get probe: %w", err)
		}
	}
	res.set("engine.pages_per_get", float64(cache()-before)/gets, "count")
	return nil
}
