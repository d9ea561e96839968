// Command socrates-top is a "top" for a Socrates deployment: it opens an
// in-process cluster, drives a light OLTP workload, and periodically
// renders the per-tier metrics registry — commit-path and GetPage@LSN
// latency histograms for the compute, landing-zone, XLOG, page-server and
// XStore tiers — followed by the span tree of the most recent traced
// request.
//
//	$ socrates-top -interval 1s -duration 10s
//	TIER        METRIC                       COUNT      P50      P95      P99      MAX
//	compute     commit.latency                 412    1.1ms    2.3ms    3.0ms    4.2ms
//	lz          write.latency                  398    420µs    910µs    1.2ms    2.0ms
//	...
//
// With -once it prints a single snapshot and exits; with -json it emits
// the raw registry snapshot as JSON (one object per refresh) for piping
// into other tools.
//
// With -addr it attaches to a RUNNING deployment instead of opening its
// own: it polls the HTTP observability plane exposed by
// DB.ServeObservability (or socratesd -obs) at /metrics.json and renders
// the same table — "top" for a live server.
//
//	$ socratesd -fast -obs 127.0.0.1:7070 &
//	$ socrates-top -addr 127.0.0.1:7070
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"sort"
	"text/tabwriter"
	"time"

	"socrates"
	"socrates/internal/obs"
)

func main() {
	interval := flag.Duration("interval", time.Second, "refresh interval")
	duration := flag.Duration("duration", 10*time.Second, "total run time (0 = until interrupted)")
	once := flag.Bool("once", false, "print one snapshot and exit")
	jsonOut := flag.Bool("json", false, "emit raw registry snapshots as JSON")
	trace := flag.Bool("trace", true, "print the latest request's span tree")
	waits := flag.Bool("waits", true, "print the wait-stats table (blocked time per tier and wait class, with per-refresh rates)")
	secondaries := flag.Int("secondaries", 1, "secondary compute nodes")
	pageServers := flag.Int("pageservers", 1, "initial page servers")
	fast := flag.Bool("fast", true, "zero-latency devices (set -fast=false for simulated Azure latencies)")
	addr := flag.String("addr", "", "attach to a running deployment's observability plane (host:port of socratesd -obs) instead of opening an in-process cluster")
	flag.Parse()

	if *addr != "" {
		pollRemote(*addr, *interval, *duration, *once, *jsonOut, *waits)
		return
	}

	db, err := socrates.Open(socrates.Config{
		Name:        "top",
		Secondaries: *secondaries,
		PageServers: *pageServers,
		Fast:        *fast,
	})
	if err != nil {
		log.Fatalf("open: %v", err)
	}
	defer db.Close()

	ctx := context.Background()
	if _, err := db.ExecContext(ctx, `CREATE TABLE kv (id INT PRIMARY KEY, v TEXT)`); err != nil {
		log.Fatalf("create table: %v", err)
	}

	// Background workload: steady inserts and point reads so the
	// histograms have something to say.
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			stmt := fmt.Sprintf(`INSERT INTO kv VALUES (%d, 'row-%d')`, i, i)
			if i%4 == 3 {
				stmt = fmt.Sprintf(`SELECT v FROM kv WHERE id = %d`, i/2)
			}
			if _, err := db.ExecContext(ctx, stmt); err != nil {
				log.Printf("workload: %v", err)
				return
			}
		}
	}()

	deadline := time.Time{}
	if *duration > 0 {
		deadline = time.Now().Add(*duration)
	}
	wv := newWaitsView()
	for {
		//socrates:sleep-ok the refresh interval is the point of a top-style tool
		time.Sleep(*interval)
		render(db, *jsonOut, *trace)
		if *waits && !*jsonOut {
			wv.render(db.WaitReport())
		}
		if *once || (!deadline.IsZero() && time.Now().After(deadline)) {
			break
		}
	}
	close(stop)
	<-done
}

// pollRemote renders snapshots polled from a running deployment's
// /metrics.json (and, with waits, /waits) endpoints (the -addr mode).
func pollRemote(addr string, interval, duration time.Duration, once, jsonOut, waits bool) {
	url := "http://" + addr + "/metrics.json"
	waitsURL := "http://" + addr + "/waits"
	deadline := time.Time{}
	if duration > 0 {
		deadline = time.Now().Add(duration)
	}
	client := &http.Client{Timeout: 5 * time.Second}
	wv := newWaitsView()
	for {
		body, err := fetch(client, url)
		if err != nil {
			log.Fatalf("polling %s: %v", url, err)
		}
		if jsonOut {
			os.Stdout.Write(body)
			fmt.Println()
		} else {
			var snap obs.Snapshot
			if err := json.Unmarshal(body, &snap); err != nil {
				log.Fatalf("decoding snapshot: %v", err)
			}
			renderSnapshot(snap)
			if waits {
				wbody, err := fetch(client, waitsURL)
				if err != nil {
					log.Fatalf("polling %s: %v", waitsURL, err)
				}
				var rep obs.WaitReport
				if err := json.Unmarshal(wbody, &rep); err != nil {
					log.Fatalf("decoding wait report: %v", err)
				}
				wv.render(rep)
			}
		}
		if once || (!deadline.IsZero() && time.Now().After(deadline)) {
			return
		}
		//socrates:sleep-ok the refresh interval is the point of a top-style tool
		time.Sleep(interval)
	}
}

// waitsView renders the wait-stats table: every tier/class sketch sorted
// by cumulative blocked time, with the rates observed since the previous
// refresh (waits begun per second, blocked time accumulated per second).
type waitsView struct {
	prevTaken time.Time
	prev      map[string]obs.WaitClassStat // "tier/class" → previous snapshot
}

func newWaitsView() *waitsView {
	return &waitsView{prev: make(map[string]obs.WaitClassStat)}
}

func (v *waitsView) render(rep obs.WaitReport) {
	elapsed := rep.Taken.Sub(v.prevTaken)
	first := v.prevTaken.IsZero()
	v.prevTaken = rep.Taken

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "TIER\tWAIT\tCOUNT\tTOTAL\tMAX\tWAITS/S\tBLOCKED/S")
	row := func(tier string, st obs.WaitClassStat) {
		key := tier + "/" + st.Class
		rate, blocked := "", ""
		if !first && elapsed > 0 {
			p := v.prev[key]
			rate = fmt.Sprintf("%.0f", float64(st.Count-p.Count)/elapsed.Seconds())
			perSec := time.Duration(float64(st.TotalNS-p.TotalNS) / elapsed.Seconds())
			blocked = perSec.Round(time.Microsecond).String()
		}
		v.prev[key] = st
		fmt.Fprintf(w, "%s\t%s\t%d\t%v\t%v\t%s\t%s\n",
			tier, st.Class, st.Count,
			time.Duration(st.TotalNS).Round(time.Microsecond),
			time.Duration(st.MaxNS).Round(time.Microsecond),
			rate, blocked)
	}
	for _, st := range rep.Global {
		row("(all)", st)
	}
	for _, tier := range sortedNames(rep.Tiers) {
		for _, st := range rep.Tiers[tier] {
			row(tier, st)
		}
	}
	w.Flush()
}

func fetch(client *http.Client, url string) ([]byte, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %s", resp.Status)
	}
	return io.ReadAll(resp.Body)
}

// renderSnapshot prints one raw registry snapshot as the per-tier table
// (the -addr mode's renderer; tier = metric-name prefix).
func renderSnapshot(snap obs.Snapshot) {
	fmt.Printf("\n== socrates-top @ %s (remote) ==\n", snap.Taken.Format("15:04:05.000"))
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "METRIC\tCOUNT\tP50\tP95\tP99\tMAX")
	for _, n := range sortedNames(snap.Histograms) {
		h := snap.Histograms[n]
		fmt.Fprintf(w, "%s\t%d\t%v\t%v\t%v\t%v\n", n, h.Count, h.P50, h.P95, h.P99, h.Max)
	}
	for _, n := range sortedNames(snap.Counters) {
		fmt.Fprintf(w, "%s\t%d\t\t\t\t\n", n, snap.Counters[n])
	}
	for _, n := range sortedNames(snap.Gauges) {
		fmt.Fprintf(w, "%s\t%d\t\t\t\t\n", n, snap.Gauges[n])
	}
	w.Flush()
}

func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func render(db *socrates.DB, jsonOut, withTrace bool) {
	snap := db.MetricsSnapshot()
	if jsonOut {
		fmt.Println(db.Cluster().Metrics.Snapshot().JSON())
		return
	}
	fmt.Printf("\n== socrates-top @ %s ==\n", snap.Taken.Format("15:04:05.000"))
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "TIER\tMETRIC\tCOUNT\tP50\tP95\tP99\tMAX")
	for _, t := range []struct {
		label string
		tm    socrates.TierMetrics
	}{
		{"compute", snap.Compute},
		{"lz", snap.LandingZone},
		{"xlog", snap.XLOG},
		{"pageserver", snap.PageServer},
		{"xstore", snap.XStore},
	} {
		names := make([]string, 0, len(t.tm.Histograms))
		for n := range t.tm.Histograms {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			h := t.tm.Histograms[n]
			fmt.Fprintf(w, "%s\t%s\t%d\t%v\t%v\t%v\t%v\n",
				t.label, n, h.Count, h.P50, h.P95, h.P99, h.Max)
		}
		cnames := make([]string, 0, len(t.tm.Counters))
		for n := range t.tm.Counters {
			cnames = append(cnames, n)
		}
		sort.Strings(cnames)
		for _, n := range cnames {
			fmt.Fprintf(w, "%s\t%s\t%d\t\t\t\t\n", t.label, n, t.tm.Counters[n])
		}
	}
	w.Flush()
	if withTrace {
		if tr := db.LastTrace(); tr != nil {
			fmt.Printf("-- latest trace (tiers: %v) --\n%s", tr.Tiers(), tr.Format())
		}
	}
}
