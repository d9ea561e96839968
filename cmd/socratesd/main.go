// Command socratesd runs a complete Socrates deployment as a server
// process: SQL over a line-based TCP protocol, plus the internal tiers
// (XLOG service and page servers) optionally exposed on RBIO/TCP so other
// processes can pull log blocks or issue GetPage@LSN — the same protocol
// the in-process fabric speaks.
//
// SQL protocol: one statement per line; the server replies with
// tab-separated rows terminated by a line "ok <rows> <affected>" or
// "error <message>".
//
//	$ socratesd -listen :5432 &
//	$ printf "CREATE TABLE t (id INT PRIMARY KEY, v TEXT)\n" | nc localhost 5432
//
// With -tenants the server boots a multi-tenant front-door fleet
// instead of a single cluster: several elastic pools behind one router,
// the named tenants placed round-robin across them with per-tenant
// admission budgets. Statements are then addressed per line as
// "@tenant SQL" and routed through the router tier (placement cache,
// typed redirects, admission). The -obs plane serves the router's
// registry, so `socrates-top -addr` renders the per-tenant table.
//
//	$ socratesd -tenants alpha,beta -obs 127.0.0.1:7070 &
//	$ printf "@alpha CREATE TABLE t (id INT PRIMARY KEY, v TEXT)\n" | nc localhost 5432
//
// Flags select deployment shape (secondaries, page servers, landing-zone
// service, simulated-latency fidelity).
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"socrates"
	"socrates/internal/frontdoor"
	"socrates/internal/obs"
	"socrates/internal/rbio"
	"socrates/internal/sqlengine"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:5432", "SQL listen address")
	rbioListen := flag.String("rbio", "", "optional RBIO/TCP address exposing the XLOG service")
	name := flag.String("name", "db", "database name")
	secondaries := flag.Int("secondaries", 1, "secondary compute nodes")
	pageServers := flag.Int("pageservers", 1, "initial page servers")
	pagesPerPartition := flag.Uint64("partition-pages", 0, "pages per partition (0 = single partition)")
	lz := flag.String("lz", "xio", "landing-zone service: xio | directdrive")
	fast := flag.Bool("fast", false, "zero-latency devices (development)")
	obsAddr := flag.String("obs", "", "HTTP observability plane address (/metrics, /watermarks, /flight, /traces, /waits, /debug/pprof)")
	tenants := flag.String("tenants", "", "comma-separated tenant names; non-empty boots a multi-tenant front-door fleet (statements become '@tenant SQL')")
	pools := flag.Int("pools", 2, "elastic pools in the fleet (multi-tenant mode)")
	admitRate := flag.Float64("admit-rate", 0, "per-tenant admission budget, ops/sec (0 = unlimited; multi-tenant mode)")
	admitBurst := flag.Float64("admit-burst", 0, "per-tenant admission burst (multi-tenant mode)")
	flag.Parse()

	if *tenants != "" {
		runFleet(*listen, *obsAddr, strings.Split(*tenants, ","), *pools, *admitRate, *admitBurst)
		return
	}

	cfg := socrates.Config{
		Name:              *name,
		Secondaries:       *secondaries,
		PageServers:       *pageServers,
		PagesPerPartition: *pagesPerPartition,
		Fast:              *fast,
	}
	switch strings.ToLower(*lz) {
	case "xio":
		cfg.LZ = socrates.XIO
	case "directdrive", "dd":
		cfg.LZ = socrates.DirectDrive
	default:
		log.Fatalf("unknown landing-zone service %q", *lz)
	}

	db, err := socrates.Open(cfg)
	if err != nil {
		log.Fatalf("starting deployment: %v", err)
	}
	defer db.Close()
	log.Printf("socratesd: %q up (lz=%s secondaries=%d pageservers=%d)",
		*name, *lz, *secondaries, *pageServers)

	if *obsAddr != "" {
		osrv, err := db.ServeObservability(*obsAddr)
		if err != nil {
			log.Fatalf("observability listener: %v", err)
		}
		defer osrv.Close()
		log.Printf("socratesd: observability plane on http://%s (try /metrics, /watermarks, /flight, /waits)", osrv.Addr())
	}

	if *rbioListen != "" {
		srv, err := rbio.ServeTCP(*rbioListen, db.Cluster().XLOG.Handler())
		if err != nil {
			log.Fatalf("rbio listener: %v", err)
		}
		defer srv.Close()
		log.Printf("socratesd: XLOG service on rbio/tcp %s", srv.Addr())
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatalf("sql listener: %v", err)
	}
	defer ln.Close()
	log.Printf("socratesd: SQL on tcp %s", ln.Addr())

	go func() {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		log.Print("socratesd: shutting down")
		ln.Close()
	}()

	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		go serveConn(db, conn)
	}
}

// serveConn runs one SQL session over a TCP connection.
func serveConn(db *socrates.DB, conn net.Conn) {
	defer conn.Close()
	sess := db.Session()
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	out := bufio.NewWriter(conn)
	defer out.Flush()
	for sc.Scan() {
		stmt := strings.TrimSpace(sc.Text())
		if stmt == "" {
			continue
		}
		if strings.EqualFold(stmt, "quit") || strings.EqualFold(stmt, "exit") {
			return
		}
		res, err := sess.Exec(stmt)
		if err != nil {
			fmt.Fprintf(out, "error %v\n", err)
			out.Flush()
			continue
		}
		writeResult(out, res)
	}
}

// writeResult writes one statement's reply in the line protocol:
// tab-separated rows, then the "ok <rows> <affected>" terminator.
func writeResult(out *bufio.Writer, res *sqlengine.Result) {
	if len(res.Columns) > 0 {
		fmt.Fprintln(out, strings.Join(res.Columns, "\t"))
	}
	for _, row := range res.Rows {
		parts := make([]string, len(row))
		for i, v := range row {
			parts[i] = v.String()
		}
		fmt.Fprintln(out, strings.Join(parts, "\t"))
	}
	fmt.Fprintf(out, "ok %d %d\n", len(res.Rows), res.Affected)
	out.Flush()
}

// runFleet is the multi-tenant mode: a front-door fleet (pools behind
// one router) serving the same line protocol with per-line tenant
// addressing, and an observability plane over the router's registry.
func runFleet(listen, obsAddr string, tenants []string, pools int, admitRate, admitBurst float64) {
	for i, t := range tenants {
		tenants[i] = strings.TrimSpace(t)
	}
	router := obs.Plane{Tracer: obs.NewTracer(), Metrics: obs.NewRegistry()}
	f, err := frontdoor.NewFleet(frontdoor.FleetConfig{
		Clusters:       pools,
		Tenants:        tenants,
		AdmissionRate:  admitRate,
		AdmissionBurst: admitBurst,
		Seed:           1,
		Obs:            router,
	})
	if err != nil {
		log.Fatalf("starting fleet: %v", err)
	}
	defer f.Close()
	log.Printf("socratesd: fleet up (pools=%d tenants=%v admit=%g/s)", pools, tenants, admitRate)

	if obsAddr != "" {
		osrv, err := obs.Serve(obsAddr, obs.NewHTTPHandler(router))
		if err != nil {
			log.Fatalf("observability listener: %v", err)
		}
		defer osrv.Close()
		log.Printf("socratesd: router observability plane on http://%s (frontdoor.tenant.* series; try socrates-top -addr)", osrv.Addr())
	}

	ln, err := net.Listen("tcp", listen)
	if err != nil {
		log.Fatalf("sql listener: %v", err)
	}
	defer ln.Close()
	log.Printf("socratesd: SQL on tcp %s (address statements as '@tenant SQL')", ln.Addr())

	go func() {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		log.Print("socratesd: shutting down")
		ln.Close()
	}()

	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		go serveFleetConn(f, conn)
	}
}

// serveFleetConn runs one SQL session against the fleet: every line is
// "@tenant SQL", routed through the front door (placement cache, typed
// redirects, per-tenant admission).
func serveFleetConn(f *frontdoor.Fleet, conn net.Conn) {
	defer conn.Close()
	ctx := context.Background()
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	out := bufio.NewWriter(conn)
	defer out.Flush()
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.EqualFold(line, "quit") || strings.EqualFold(line, "exit") {
			return
		}
		if !strings.HasPrefix(line, "@") {
			fmt.Fprintln(out, "error multi-tenant mode: address statements as '@tenant SQL'")
			out.Flush()
			continue
		}
		tenant, stmt, _ := strings.Cut(line[1:], " ")
		stmt = strings.TrimSpace(stmt)
		if tenant == "" || stmt == "" {
			fmt.Fprintln(out, "error multi-tenant mode: address statements as '@tenant SQL'")
			out.Flush()
			continue
		}
		res, err := f.Router.ExecContext(ctx, tenant, stmt)
		if err != nil {
			fmt.Fprintf(out, "error %v\n", err)
			out.Flush()
			continue
		}
		writeResult(out, res)
	}
}
