package main

import (
	"runtime"
	"syscall"
	"time"

	"socrates/internal/obs"
)

// The harness measures every layer from outside: it reads the counters the
// layers already export before and after the measured window and reports
// the difference. Nothing here adds a counter or a span inside internal/.

// histNames are the registry histograms the per-layer metrics read.
var histNames = []string{
	"compute.commit.latency", "compute.getpage.latency", "lz.batch.wait",
	"lz.write.latency", "netmux.queue.wait", "xlog.promote.latency",
	"xlog.pull.latency", "pageserver.getpage.latency", "pageserver.getpage.wait",
	"pageserver.apply.latency", "xstore.write.latency",
}

// snapshot is every exported counter the harness reads, at one instant.
type snapshot struct {
	gcCycles  uint32
	gcPauseNS uint64
	heapInuse uint64

	logBlocks, logBytes, coalesced int64 // compute.LogWriter
	memHits, ssdHits, misses       int64 // compute RBPEX
	fetches                        int64 // GetPage@LSN calls issued

	lzStalls                 int
	feedRecv, feedStale, gap int // xlog.Service.Stats

	psServed, psWaits, psApplies    int64 // pageserver.Server.Stats, summed
	psMemHits, psSSDHits, psMisses  int64 // page servers' covering RBPEX
	xsReads, xsWrites, xsBytesWrote int64 // xstore.Store.Stats
	xsLive                          int64
	lzDevWrites, lzDevBytes         int64 // simdisk.Device.Stats over LZ replicas

	counters map[string]uint64 // obs registry
	hists    map[string]obs.HistBuckets
	waitNS   map[string]uint64 // wait class -> total blocked ns
}

func rusage() (cpu time.Duration, maxRSSKB int64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return tv(ru.Utime) + tv(ru.Stime), ru.Maxrss
}

func takeSnapshot(d *deployment) snapshot {
	cl, p := d.cl, d.cl.Primary()
	var s snapshot
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.gcCycles, s.gcPauseNS, s.heapInuse = ms.NumGC, ms.PauseTotalNs, ms.HeapInuse

	s.logBlocks, s.logBytes = p.Writer().Stats()
	s.coalesced = p.Writer().Coalesced()
	s.memHits, s.ssdHits, s.misses = p.Pages().Cache().Stats()
	s.fetches = p.Pages().Fetches()

	s.lzStalls = cl.LZ.Stalls()
	s.feedRecv, s.feedStale, s.gap = cl.XLOG.Stats()
	for _, srv := range cl.PageServers() {
		served, waits, applies := srv.Stats()
		s.psServed, s.psWaits, s.psApplies = s.psServed+served, s.psWaits+waits, s.psApplies+applies
		m, sd, miss := srv.Cache().Stats()
		s.psMemHits, s.psSSDHits, s.psMisses = s.psMemHits+m, s.psSSDHits+sd, s.psMisses+miss
	}
	s.xsReads, s.xsWrites, _, s.xsBytesWrote = cl.Store.Stats()
	s.xsLive = cl.Store.LiveBytes()
	for _, dev := range cl.LZReplicas() {
		_, w, _, bw := dev.Stats()
		s.lzDevWrites, s.lzDevBytes = s.lzDevWrites+w, s.lzDevBytes+bw
	}

	s.counters = cl.Metrics.Snapshot().Counters
	s.hists = make(map[string]obs.HistBuckets, len(histNames))
	for _, name := range histNames {
		s.hists[name] = cl.Metrics.Histogram(name).Buckets()
	}
	s.waitNS = make(map[string]uint64)
	for _, st := range cl.Waits.Report().Global {
		s.waitNS[st.Class] = st.TotalNS
	}
	return s
}

// window is the difference between two snapshots.
type window struct{ a, b snapshot }

func (w window) counter(name string) float64 {
	return float64(w.b.counters[name] - w.a.counters[name])
}

func (w window) hist(name string) histWindow {
	return newHistWindow(w.a.hists[name], w.b.hists[name])
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
