// Command socrates-cli is an interactive SQL shell over an embedded
// Socrates deployment — the quickest way to poke at the system:
//
//	$ socrates-cli
//	socrates> CREATE TABLE t (id INT PRIMARY KEY, v TEXT)
//	socrates> INSERT INTO t VALUES (1, 'hello')
//	socrates> SELECT * FROM t
//	id  v
//	1   hello
//
// Beyond SQL it accepts operational dot-commands: .stats, .failover,
// .backup <name>, .restore <name>, .secondaries, .help.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"
	"text/tabwriter"

	"socrates"
)

func main() {
	secondaries := flag.Int("secondaries", 0, "secondary compute nodes")
	lz := flag.String("lz", "fast", "landing zone: xio | directdrive | fast")
	flag.Parse()

	cfg := socrates.Config{Name: "cli", Secondaries: *secondaries}
	switch strings.ToLower(*lz) {
	case "xio":
		cfg.LZ = socrates.XIO
	case "directdrive", "dd":
		cfg.LZ = socrates.DirectDrive
	default:
		cfg.Fast = true
	}
	db, err := socrates.Open(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "open: %v\n", err)
		os.Exit(1)
	}
	defer db.Close()

	fmt.Println("socrates-cli — type SQL, or .help for commands")
	sess := db.Session()
	sc := bufio.NewScanner(os.Stdin)
	for {
		fmt.Print("socrates> ")
		if !sc.Scan() {
			fmt.Println()
			return
		}
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
			continue
		case line == ".exit" || line == ".quit":
			return
		case strings.HasPrefix(line, "."):
			if done := dotCommand(db, line); done {
				return
			}
			continue
		}
		res, err := sess.Exec(line)
		if err != nil {
			fmt.Printf("error: %v\n", err)
			continue
		}
		printResult(res)
	}
}

func printResult(res *socrates.Result) {
	if len(res.Columns) == 0 {
		fmt.Printf("ok (%d affected)\n", res.Affected)
		return
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, strings.Join(res.Columns, "\t"))
	for _, row := range res.Rows {
		parts := make([]string, len(row))
		for i, v := range row {
			parts[i] = v.String()
		}
		fmt.Fprintln(w, strings.Join(parts, "\t"))
	}
	w.Flush()
	fmt.Printf("(%d rows)\n", len(res.Rows))
}

// dotCommand handles operational commands; returns true to exit.
func dotCommand(db *socrates.DB, line string) bool {
	fields := strings.Fields(line)
	switch fields[0] {
	case ".help":
		fmt.Println(`commands:
  .stats              deployment metrics
  .failover           crash the primary and recover
  .backup <name>      constant-time backup
  .restore <name>     query a point-in-time restore (read-only; then discarded)
  .addsecondary <n>   attach a read-scale secondary
  .secondaries        list secondaries
  .exit`)
	case ".stats":
		s := db.MetricsSnapshot()
		fmt.Printf("hardened LSN   %d\nlog bytes      %d\ncache hit rate %.1f%%\nremote fetches %d\npage servers   %d\nsecondaries    %d\nxstore         %.2f MB\ncpu            %.1f%%\n",
			db.BackupLSN(), s.LandingZone.Counters["write.bytes"], 100*s.CacheHitRate, s.RemoteFetches,
			s.PageServers, len(db.Secondaries()), float64(s.XStore.Gauges["footprint_bytes"])/(1<<20),
			100*s.CPUUtilization)
	case ".failover":
		d, err := db.Failover()
		if err != nil {
			fmt.Printf("error: %v\n", err)
			return false
		}
		fmt.Printf("recovered in %v\n", d)
	case ".backup":
		if len(fields) != 2 {
			fmt.Println("usage: .backup <name>")
			return false
		}
		if err := db.Backup(fields[1]); err != nil {
			fmt.Printf("error: %v\n", err)
			return false
		}
		fmt.Printf("backup %q taken at LSN %d\n", fields[1], db.BackupLSN())
	case ".restore":
		if len(fields) != 2 {
			fmt.Println("usage: .restore <name>")
			return false
		}
		r, err := db.PointInTimeRestore(fields[1], 0)
		if err != nil {
			fmt.Printf("error: %v\n", err)
			return false
		}
		res, err := r.Exec("SHOW TABLES")
		if err != nil {
			fmt.Printf("error: %v\n", err)
			return false
		}
		fmt.Println("restored image tables:")
		printResult(res)
	case ".addsecondary":
		if len(fields) != 2 {
			fmt.Println("usage: .addsecondary <name>")
			return false
		}
		if err := db.AddSecondary(fields[1]); err != nil {
			fmt.Printf("error: %v\n", err)
			return false
		}
		fmt.Println("attached")
	case ".secondaries":
		for _, n := range db.Secondaries() {
			fmt.Println(n)
		}
	default:
		fmt.Printf("unknown command %s (.help)\n", fields[0])
	}
	return false
}
