package cluster

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"socrates/internal/sqlengine"
)

// TestFailoverRacesInFlightCommits hammers the primary with concurrent
// ExecContext inserts while a failover fires mid-stream, then asserts
// every acknowledged insert is readable on the new primary. This is the
// regression net for the commit path's harden wait: an ack that races the
// failover must have hardened in the landing zone first, so the new
// primary (which boots from the LZ's hardened end) can never lose it.
func TestFailoverRacesInFlightCommits(t *testing.T) {
	c := newFastCluster(t, fastConfig("forace"))
	db := sqlengine.New(c.Primary().Engine)
	if _, err := db.Exec(`CREATE TABLE kv (id INT PRIMARY KEY, v TEXT)`); err != nil {
		t.Fatal(err)
	}

	const writers = 4
	var (
		mu    sync.Mutex
		acked []int
	)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sess := db.Session()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				id := w*1_000_000 + i
				_, err := sess.ExecContext(context.Background(),
					fmt.Sprintf(`INSERT INTO kv VALUES (%d, 'x')`, id))
				if err != nil {
					// The old compute node died under us — exactly what a
					// client sees during failover. Unacked writes carry no
					// durability promise; the writer simply stops.
					return
				}
				mu.Lock()
				acked = append(acked, id)
				mu.Unlock()
			}
		}(w)
	}

	// Let the writers build up a stream of acks, then fail over while
	// they are still mid-flight.
	deadline := time.Now().Add(10 * time.Second)
	for {
		mu.Lock()
		n := len(acked)
		mu.Unlock()
		if n >= 50 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d acks before deadline", n)
		}
		time.Sleep(time.Millisecond) // deadline-bounded poll for writer progress
	}
	next, _, err := c.Failover()
	if err != nil {
		t.Fatalf("failover under load: %v", err)
	}
	close(stop)
	wg.Wait()

	// Every ack issued before or during the failover must survive it.
	mu.Lock()
	defer mu.Unlock()
	sess := sqlengine.New(next.Engine).Session()
	missing := 0
	for _, id := range acked {
		res, err := sess.Exec(fmt.Sprintf(`SELECT v FROM kv WHERE id = %d`, id))
		if err != nil {
			t.Fatalf("post-failover read id=%d: %v", id, err)
		}
		if len(res.Rows) != 1 {
			missing++
			t.Errorf("acked insert id=%d lost across failover", id)
		}
	}
	if missing == 0 {
		t.Logf("all %d acked inserts survived the failover", len(acked))
	}
}
