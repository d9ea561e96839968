// Scaleout: grow a database past its provisioned partition, watch the
// cluster add page servers on demand (§4.1.1), split a partition into
// finer shards (§6), and scale reads with a secondary — all without moving
// data or pausing writes.
//
//	go run ./examples/scaleout
package main

import (
	"fmt"
	"log"
	"time"

	"socrates"
)

func main() {
	db, err := socrates.Open(socrates.Config{
		Name:              "scaleout",
		Fast:              true,
		PageServers:       1,
		PagesPerPartition: 64, // small partitions so growth is visible
		CacheMemPages:     16, // small compute cache: reads hit page servers
	})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	if _, err := db.Exec(`CREATE TABLE events (id INT PRIMARY KEY, body TEXT)`); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("starting with %d page server(s)\n", db.MetricsSnapshot().PageServers)

	// Load enough wide rows to spill past partition 0; the cluster spins
	// up page servers for new partitions as the allocator crosses each
	// boundary — no data moves.
	sess := db.Session()
	if _, err := sess.Exec("BEGIN"); err != nil {
		log.Fatal(err)
	}
	body := make([]byte, 900)
	for i := range body {
		body[i] = 'x'
	}
	for i := 0; i < 1500; i++ {
		stmt := fmt.Sprintf(`INSERT INTO events VALUES (%d, '%s')`, i, body)
		if _, err := sess.Exec(stmt); err != nil {
			log.Fatal(err)
		}
		if i%500 == 499 {
			if _, err := sess.Exec("COMMIT"); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("after %4d rows: %d page servers\n", i+1, db.MetricsSnapshot().PageServers)
			if _, err := sess.Exec("BEGIN"); err != nil {
				log.Fatal(err)
			}
		}
	}
	if _, err := sess.Exec("COMMIT"); err != nil {
		log.Fatal(err)
	}

	// Finer sharding: split partition 0 for a smaller mean-time-to-recovery.
	before := db.MetricsSnapshot().PageServers
	if err := db.SplitPageServer(0); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("split partition 0: %d -> %d page servers\n", before, db.MetricsSnapshot().PageServers)

	// Read scale-out: a secondary attaches in O(1) (no data copied) and
	// serves snapshot reads.
	if err := db.AddSecondary("reporting"); err != nil {
		log.Fatal(err)
	}
	if err := db.WaitForReplication(10 * time.Second); err != nil {
		log.Fatal(err)
	}
	ro, err := db.ReadSession("reporting")
	if err != nil {
		log.Fatal(err)
	}
	res, err := ro.Exec(`SELECT COUNT(*) FROM events`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("secondary \"reporting\" counts %s rows\n", res.Rows[0][0])

	// And the primary still answers point queries routed across shards.
	res, err = db.Exec(`SELECT COUNT(*) FROM events WHERE id >= 700 AND id < 750`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("primary range count across shards: %s\n", res.Rows[0][0])
	st := db.MetricsSnapshot()
	fmt.Printf("final: %d page servers, %d secondaries, cache hit rate %.0f%%\n",
		st.PageServers, len(db.Secondaries()), 100*st.CacheHitRate)
}
