package hadr

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"socrates/internal/engine"
	"socrates/internal/page"
)

// TestClusterConcurrentCommitsAndProbes commits from several writers while
// other goroutines read replica watermarks, wait for catch-up, and probe
// data sizes (which force write-back flushes). Under -race this exercises
// the node mutex + bufferedFile flusher + quorum-shipping goroutines
// together.
func TestClusterConcurrentCommitsAndProbes(t *testing.T) {
	c := newFast(t, fastConfig("race"))
	e := c.Primary().Engine()
	if err := e.CreateTable("t"); err != nil {
		t.Fatal(err)
	}

	const writers = 4
	const perWriter = 30
	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Probes: watermarks, size accounting, and secondary reads.
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, s := range c.Secondaries() {
					_ = s.appliedLSN()
				}
				_ = c.TotalDataBytes()
				_, _ = c.Writer().Stats()
				_ = c.Throttles()
			}
		}()
	}

	var commitWG sync.WaitGroup
	for wr := 0; wr < writers; wr++ {
		commitWG.Add(1)
		go func(wr int) {
			defer commitWG.Done()
			for i := 0; i < perWriter; i++ {
				tx := e.Begin()
				key := []byte(fmt.Sprintf("w%d-k%04d", wr, i))
				if err := tx.Put("t", key, []byte("v")); err != nil {
					tx.Abort()
					t.Errorf("put: %v", err)
					return
				}
				if err := tx.Commit(); err != nil {
					t.Errorf("commit: %v", err)
					return
				}
			}
		}(wr)
	}
	commitWG.Wait()
	close(stop)
	wg.Wait()

	// Every secondary catches up to the hardened end and sees every row.
	end := c.Writer().HardenedEnd()
	for _, s := range c.Secondaries() {
		if !s.WaitApplied(end, 5*time.Second) {
			t.Fatalf("%s stuck at %d, want %d", s.name, s.appliedLSN(), end)
		}
	}
	want := writers * perWriter
	if got := countRows(t, e, "t"); got != want {
		t.Fatalf("primary has %d rows, want %d", got, want)
	}
}

// TestNodeWaitAppliedRacesApply pins the node condition-variable protocol:
// many waiters block on WaitApplied while the apply loop drains blocks, and
// every waiter must wake exactly when its watermark is reached.
func TestNodeWaitAppliedRacesApply(t *testing.T) {
	c := newFast(t, fastConfig("race2"))
	e := c.Primary().Engine()
	if err := e.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	secs := c.Secondaries()
	if len(secs) == 0 {
		t.Fatal("no secondaries")
	}

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Each waiter targets a different intermediate watermark.
			target := c.Writer().HardenedEnd() + page.LSN(i)
			for _, s := range secs {
				if !s.WaitApplied(target, 5*time.Second) {
					t.Errorf("waiter %d: %s never reached %d", i, s.name, target)
					return
				}
			}
		}(i)
	}
	// Produce enough commits to move every target watermark.
	mustExec(t, e, func(tx *engine.Tx) error {
		for i := 0; i < 32; i++ {
			if err := tx.Put("t", []byte(fmt.Sprintf("k%02d", i)), []byte("v")); err != nil {
				return err
			}
		}
		return nil
	})
	for i := 0; i < 16; i++ {
		mustExec(t, e, func(tx *engine.Tx) error {
			return tx.Put("t", []byte(fmt.Sprintf("extra%02d", i)), []byte("v"))
		})
	}
	wg.Wait()
}
