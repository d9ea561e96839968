package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"os"
	"strings"
	"sync"
	"text/tabwriter"
	"time"

	"socrates"
	"socrates/internal/frontdoor"
	"socrates/internal/obs"
)

// tenantView renders the front door's per-tenant table from the
// frontdoor.tenant.* series: request throughput since the previous
// refresh, latency quantiles, the dominant wait class, and the admission
// and redirect counters. It reads a plain registry snapshot, so the same
// view works embedded (a local fleet's registry) and remote (the
// /metrics.json document of a socratesd -tenants deployment).
type tenantView struct {
	prevTaken time.Time
	prevOps   map[string]uint64
}

func newTenantView() *tenantView {
	return &tenantView{prevOps: make(map[string]uint64)}
}

type tenantRow struct {
	ops, rejects, redirects uint64
	lat                     obs.HistSummary
	topWaitClass            string
	topWaitNS               uint64
}

const tenantPrefix = "frontdoor.tenant."

// tenantRows groups the snapshot's tenant-labeled series into one row
// per tenant. Snapshots without front-door series yield an empty map.
func tenantRows(snap obs.Snapshot) map[string]*tenantRow {
	rows := make(map[string]*tenantRow)
	get := func(t string) *tenantRow {
		r, ok := rows[t]
		if !ok {
			r = &tenantRow{}
			rows[t] = r
		}
		return r
	}
	for n, val := range snap.Counters {
		if !strings.HasPrefix(n, tenantPrefix) {
			continue
		}
		rest := strings.TrimPrefix(n, tenantPrefix)
		switch {
		case strings.HasSuffix(rest, ".ops"):
			get(strings.TrimSuffix(rest, ".ops")).ops = val
		case strings.HasSuffix(rest, ".rejects"):
			get(strings.TrimSuffix(rest, ".rejects")).rejects = val
		case strings.HasSuffix(rest, ".redirects"):
			get(strings.TrimSuffix(rest, ".redirects")).redirects = val
		default:
			if i := strings.Index(rest, ".wait."); i >= 0 {
				r := get(rest[:i])
				if val > r.topWaitNS {
					r.topWaitNS = val
					r.topWaitClass = rest[i+len(".wait."):]
				}
			}
		}
	}
	for n, h := range snap.Histograms {
		if strings.HasPrefix(n, tenantPrefix) && strings.HasSuffix(n, ".latency") {
			get(strings.TrimSuffix(strings.TrimPrefix(n, tenantPrefix), ".latency")).lat = h
		}
	}
	return rows
}

func (v *tenantView) render(snap obs.Snapshot) {
	rows := tenantRows(snap)
	if len(rows) == 0 {
		return
	}
	elapsed := snap.Taken.Sub(v.prevTaken)
	first := v.prevTaken.IsZero()
	v.prevTaken = snap.Taken

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "TENANT\tOPS\tTPS\tP50\tP99\tTOP WAIT\tREJECTS\tREDIRECTS")
	for _, t := range sortedNames(rows) {
		r := rows[t]
		tps := ""
		if !first && elapsed > 0 {
			tps = fmt.Sprintf("%.0f", float64(r.ops-v.prevOps[t])/elapsed.Seconds())
		}
		v.prevOps[t] = r.ops
		topWait := "-"
		if r.topWaitClass != "" {
			topWait = fmt.Sprintf("%s %v", r.topWaitClass,
				time.Duration(r.topWaitNS).Round(time.Microsecond))
		}
		fmt.Fprintf(w, "%s\t%d\t%s\t%v\t%v\t%s\t%d\t%d\n",
			t, r.ops, tps, r.lat.P50, r.lat.P99, topWait, r.rejects, r.redirects)
	}
	w.Flush()
}

// runTenants is the embedded multi-tenant mode (-tenants N): it boots a
// small front-door fleet (two instant-profile pools, N tenants placed
// round-robin, a finite per-tenant admission budget), drives a skewed
// workload through the router — tenant t0 runs open-loop into its budget
// so the rejects column moves, the rest pace themselves under it — and,
// when the fleet has a second tenant, live-migrates the last tenant
// between the pools every few seconds so the redirect path shows up too.
func runTenants(n int, interval, duration time.Duration, once, jsonOut bool) {
	router := obs.Plane{Tracer: obs.NewTracer(), Metrics: obs.NewRegistry()}
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("t%d", i)
	}
	f, err := frontdoor.NewFleet(frontdoor.FleetConfig{
		Clusters:       2,
		Tenants:        names,
		AdmissionRate:  150,
		AdmissionBurst: 25,
		Seed:           42,
		Obs:            router,
	})
	if err != nil {
		log.Fatalf("fleet: %v", err)
	}
	defer f.Close()

	ctx := context.Background()
	for _, t := range names {
		if _, err := f.Router.ExecContext(ctx, t, `CREATE TABLE kv (id INT PRIMARY KEY, v TEXT)`); err != nil {
			log.Fatalf("%s: create table: %v", t, err)
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for ti, t := range names {
		wg.Add(1)
		go func(ti int, t string) {
			defer wg.Done()
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
				_, err := f.Router.ExecContext(ctx, t, stmt)
				switch {
				case err == nil:
				case errors.Is(err, socrates.ErrAdmission):
					// Over budget: back off like a real client instead of
					// hammering the door.
					time.Sleep(2 * time.Millisecond) //socrates:sleep-ok client backoff after admission rejection
				default:
					log.Printf("%s workload: %v", t, err)
					return
				}
				if ti != 0 {
					time.Sleep(5 * time.Millisecond) //socrates:sleep-ok paced tenants stay under their admission budget
				}
			}
		}(ti, t)
	}
	if n >= 2 {
		// Wander the last tenant between the pools so the placement
		// epoch bumps and routers chase it through typed redirects.
		wg.Add(1)
		go func() {
			defer wg.Done()
			mover := names[n-1]
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				case <-time.After(4 * time.Second):
				}
				// Round-robin placement homes the mover on pool
				// (n-1)%2, so start with the other pool.
				dst := fmt.Sprintf("h%d", (n+i)%2)
				if err := f.Migrate(ctx, mover, dst); err != nil {
					log.Printf("migrate %s -> %s: %v", mover, dst, err)
				}
			}
		}()
	}

	deadline := time.Time{}
	if duration > 0 {
		deadline = time.Now().Add(duration)
	}
	tv := newTenantView()
	for {
		//socrates:sleep-ok the refresh interval is the point of a top-style tool
		time.Sleep(interval)
		snap := router.Metrics.Snapshot()
		if jsonOut {
			fmt.Println(snap.JSON())
		} else {
			fmt.Printf("\n== socrates-top @ %s (%d tenants, 2 pools) ==\n",
				snap.Taken.Format("15:04:05.000"), n)
			tv.render(snap)
		}
		if once || (!deadline.IsZero() && time.Now().After(deadline)) {
			break
		}
	}
	close(stop)
	wg.Wait()
}
