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
// Flags select deployment shape (secondaries, page servers, landing-zone
// service, simulated-latency fidelity).
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"socrates"
	"socrates/internal/rbio"
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
	flag.Parse()

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
}
