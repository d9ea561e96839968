// Quickstart: open an embedded Socrates deployment, speak SQL to it, and
// peek at the disaggregated machinery underneath (log position, cache hit
// rate, page servers).
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"socrates"
)

func main() {
	// Fast mode runs the full four-tier stack (compute → XLOG → page
	// servers → XStore) with zero-latency simulated devices.
	db, err := socrates.Open(socrates.Config{Name: "quickstart", Fast: true})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	must := func(sql string) *socrates.Result {
		res, err := db.Exec(sql)
		if err != nil {
			log.Fatalf("%s: %v", sql, err)
		}
		return res
	}

	must(`CREATE TABLE accounts (id INT PRIMARY KEY, owner TEXT, balance INT)`)
	must(`INSERT INTO accounts VALUES
		(1, 'alice', 120),
		(2, 'bob', 80),
		(3, 'carol', 300)`)
	must(`UPDATE accounts SET balance = balance + 20 WHERE owner = 'bob'`)

	res := must(`SELECT owner, balance FROM accounts ORDER BY balance DESC`)
	fmt.Println("accounts by balance:")
	for _, row := range res.Rows {
		fmt.Printf("  %-8s %s\n", row[0], row[1])
	}

	res = must(`SELECT COUNT(*), SUM(balance), AVG(balance) FROM accounts`)
	fmt.Printf("count=%s total=%s avg=%s\n",
		res.Rows[0][0], res.Rows[0][1], res.Rows[0][2])

	// A transaction that changes its mind costs nothing: writes buffer in
	// the session and never touch a page until commit.
	sess := db.Session()
	_, _ = sess.Exec("BEGIN")
	_, _ = sess.Exec(`UPDATE accounts SET balance = 0`)
	_, _ = sess.Exec("ROLLBACK")
	res = must(`SELECT SUM(balance) FROM accounts`)
	fmt.Printf("after rollback, total is still %s\n", res.Rows[0][0])

	st := db.MetricsSnapshot()
	fmt.Printf("\nunder the hood: hardened LSN %d, %d log bytes in the landing zone,\n",
		db.BackupLSN(), st.LandingZone.Counters["write.bytes"])
	fmt.Printf("%d page server(s), cache hit rate %.0f%%, %.2f MB in XStore\n",
		st.PageServers, 100*st.CacheHitRate, float64(st.XStore.Gauges["footprint_bytes"])/(1<<20))
}
