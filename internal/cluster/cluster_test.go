package cluster

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"socrates/internal/engine"
	"socrates/internal/page"
	"socrates/internal/rbio"
	"socrates/internal/simdisk"
	"socrates/internal/xstore"
)

// fastConfig returns a deployment config with zero-latency devices so
// integration tests are quick; the protocols exercised are identical.
func fastConfig(name string) Config {
	return Config{
		Name:            name,
		Net:             rbio.NewInstantNetwork(),
		LZProfile:       simdisk.Instant,
		LocalSSD:        simdisk.Instant,
		XStore:          xstore.Config{Profile: simdisk.Instant},
		LZCapacity:      16 << 20,
		CheckpointEvery: 5 * time.Millisecond,
	}
}

func newFastCluster(t *testing.T, cfg Config) *Cluster {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func mustExec(t *testing.T, e *engine.Engine, fn func(tx *engine.Tx) error) {
	t.Helper()
	tx := e.Begin()
	if err := fn(tx); err != nil {
		tx.Abort()
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

func seedRows(t *testing.T, c *Cluster, table string, n int) {
	t.Helper()
	e := c.Primary().Engine
	if err := e.CreateTable(table); err != nil && !errors.Is(err, engine.ErrTableExists) {
		t.Fatal(err)
	}
	const batch = 50
	for base := 0; base < n; base += batch {
		mustExec(t, e, func(tx *engine.Tx) error {
			for i := base; i < base+batch && i < n; i++ {
				if err := tx.Put(table, []byte(fmt.Sprintf("k%06d", i)),
					[]byte(fmt.Sprintf("v%d", i))); err != nil {
					return err
				}
			}
			return nil
		})
	}
}

func verifyRows(t *testing.T, e *engine.Engine, table string, n int, context string) {
	t.Helper()
	count := 0
	err := e.BeginRO().Scan(table, nil, nil, func(k, v []byte) bool {
		count++
		return true
	})
	if err != nil {
		t.Fatalf("%s: scan: %v", context, err)
	}
	if count != n {
		t.Fatalf("%s: %d rows, want %d", context, count, n)
	}
}

func TestBootstrapAndBasicCommit(t *testing.T) {
	c := newFastCluster(t, fastConfig("basic"))
	e := c.Primary().Engine
	if err := e.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	mustExec(t, e, func(tx *engine.Tx) error {
		return tx.Put("t", []byte("hello"), []byte("world"))
	})
	v, found, err := e.BeginRO().Get("t", []byte("hello"))
	if err != nil || !found || string(v) != "world" {
		t.Fatalf("read back: %q %v %v", v, found, err)
	}
}

func TestRemoteFetchAfterEviction(t *testing.T) {
	cfg := fastConfig("evict")
	cfg.ComputeMemPages = 8 // tiny cache: most pages must come from page servers
	c := newFastCluster(t, cfg)
	seedRows(t, c, "t", 2000)
	verifyRows(t, c.Primary().Engine, "t", 2000, "primary full scan")
	if c.Primary().Pages().Fetches() == 0 {
		t.Fatal("no GetPage@LSN fetches despite tiny cache — test is vacuous")
	}
	// Point reads across the key space.
	for i := 0; i < 2000; i += 97 {
		v, found, err := c.Primary().Engine.BeginRO().Get("t", []byte(fmt.Sprintf("k%06d", i)))
		if err != nil || !found || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("k%06d = %q %v %v", i, v, found, err)
		}
	}
}

func TestSecondaryServesSnapshotReads(t *testing.T) {
	cfg := fastConfig("sec")
	cfg.Secondaries = 2
	c := newFastCluster(t, cfg)
	seedRows(t, c, "t", 300)

	hardened := c.Primary().Writer().HardenedEnd()
	for _, name := range c.Secondaries() {
		sec, _ := c.Secondary(name)
		if !sec.WaitApplied(hardened, 5*time.Second) {
			t.Fatalf("%s did not catch up", name)
		}
		verifyRows(t, sec.Engine, "t", 300, name)
	}
}

func TestSecondaryLagsButStaysConsistent(t *testing.T) {
	cfg := fastConfig("lag")
	cfg.Secondaries = 1
	c := newFastCluster(t, cfg)
	e := c.Primary().Engine
	if err := e.CreateTable("acct"); err != nil {
		t.Fatal(err)
	}
	// Invariant: sum of two balances is constant under transfers.
	mustExec(t, e, func(tx *engine.Tx) error {
		if err := tx.Put("acct", []byte("a"), []byte("500")); err != nil {
			return err
		}
		return tx.Put("acct", []byte("b"), []byte("500"))
	})
	if err := c.WaitForCatchUp(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	sec, _ := c.Secondary("sec-0")
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 60; i++ {
			mustExec(t, e, func(tx *engine.Tx) error {
				amt := []byte(fmt.Sprintf("%d", 500-i-1))
				amt2 := []byte(fmt.Sprintf("%d", 500+i+1))
				if err := tx.Put("acct", []byte("a"), amt); err != nil {
					return err
				}
				return tx.Put("acct", []byte("b"), amt2)
			})
		}
	}()
	// Concurrent snapshot reads on the secondary always see a consistent
	// pair (sum = 1000).
	for i := 0; i < 40; i++ {
		tx := sec.Engine.BeginRO()
		av, afound, err := tx.Get("acct", []byte("a"))
		if err != nil {
			t.Fatal(err)
		}
		bv, bfound, err := tx.Get("acct", []byte("b"))
		if err != nil {
			t.Fatal(err)
		}
		if !afound || !bfound {
			continue // secondary has not applied the initial commit yet
		}
		var a, b int
		fmt.Sscanf(string(av), "%d", &a)
		fmt.Sscanf(string(bv), "%d", &b)
		if a+b != 1000 {
			t.Fatalf("torn snapshot on secondary: a=%d b=%d", a, b)
		}
	}
	<-done
}

func TestFailoverPreservesCommittedData(t *testing.T) {
	c := newFastCluster(t, fastConfig("failover"))
	seedRows(t, c, "t", 500)
	before := c.Primary().Engine.Clock().Visible()

	newPrimary, elapsed, err := c.Failover()
	if err != nil {
		t.Fatal(err)
	}
	if elapsed > 10*time.Second {
		t.Fatalf("failover took %v", elapsed)
	}
	if got := newPrimary.Engine.Clock().Visible(); got < before {
		t.Fatalf("visibility regressed: %d < %d", got, before)
	}
	verifyRows(t, newPrimary.Engine, "t", 500, "post-failover")

	// The new primary keeps writing, with allocation continuity.
	seedRows(t, c, "t2", 300)
	verifyRows(t, newPrimary.Engine, "t2", 300, "post-failover writes")
	verifyRows(t, newPrimary.Engine, "t", 500, "old table after new writes")
}

func TestFailoverIsConstantTimeInDataSize(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	timeFailover := func(rows int) time.Duration {
		c := newFastCluster(t, fastConfig(fmt.Sprintf("fo%d", rows)))
		seedRows(t, c, "t", rows)
		// Measure recovery of a steady-state cluster, not log-apply lag
		// from the just-finished bulk load.
		if err := c.WaitForCatchUp(10 * time.Second); err != nil {
			t.Fatal(err)
		}
		_, elapsed, err := c.Failover()
		if err != nil {
			t.Fatal(err)
		}
		return elapsed
	}
	small := timeFailover(100)
	large := timeFailover(3000)
	// 30x more data must not make recovery ~30x slower; allow generous
	// noise headroom.
	if large > small*10+100*time.Millisecond {
		t.Fatalf("failover scales with data: %v (100 rows) vs %v (3000 rows)", small, large)
	}
}

func TestLossyFeedStillConverges(t *testing.T) {
	cfg := fastConfig("lossy")
	cfg.Net.SetLoss(0.5)
	cfg.Secondaries = 1
	c := newFastCluster(t, cfg)
	seedRows(t, c, "t", 400)
	sec, _ := c.Secondary("sec-0")
	if !sec.WaitApplied(c.Primary().Writer().HardenedEnd(), 10*time.Second) {
		t.Fatal("secondary stuck behind lossy feed")
	}
	verifyRows(t, sec.Engine, "t", 400, "secondary after 50% feed loss")
	_, _, gaps := c.XLOG.Stats()
	if gaps == 0 {
		t.Fatal("no LZ gap fills despite feed loss — test is vacuous")
	}
}

func TestMultiplePartitions(t *testing.T) {
	cfg := fastConfig("multi")
	cfg.PageServers = 4
	cfg.PagesPerPartition = 64
	cfg.ComputeMemPages = 16
	c := newFastCluster(t, cfg)
	// Wide rows so the database spans several 64-page partitions.
	e := c.Primary().Engine
	if err := e.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	wide := make([]byte, 1024)
	const n = 1200
	for base := 0; base < n; base += 40 {
		mustExec(t, e, func(tx *engine.Tx) error {
			for i := base; i < base+40 && i < n; i++ {
				if err := tx.Put("t", []byte(fmt.Sprintf("k%06d", i)), wide); err != nil {
					return err
				}
			}
			return nil
		})
	}
	verifyRows(t, c.Primary().Engine, "t", n, "4-partition scan")

	// Each partition's server applied something.
	if err := c.WaitForCatchUp(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	busy := 0
	for _, srv := range c.PageServers() {
		if _, _, applies := srv.Stats(); applies > 0 {
			busy++
		}
	}
	if busy < 2 {
		t.Fatalf("only %d page servers saw log traffic", busy)
	}
}

func TestPageServerReplicaFailover(t *testing.T) {
	cfg := fastConfig("psrep")
	cfg.ComputeMemPages = 8
	c := newFastCluster(t, cfg)
	seedRows(t, c, "t", 800)

	if err := c.AddPageServerReplica(0); err != nil {
		t.Fatal(err)
	}
	// Kill the original server; reads fail over to the replica, which
	// serves them whether or not its background seed has finished (§4.6).
	original := c.PageServers()[0]
	c.Net.Unserve(c.addr(originalName(c, original)))
	verifyRows(t, c.Primary().Engine, "t", 800, "reads after page-server loss")
}

// originalName recovers the RBIO address suffix of a server (test helper).
func originalName(c *Cluster, srv interface{ Partition() page.PartitionID }) string {
	// Server names are ps-<seq>-p<partition>; the first server is seq 1.
	return fmt.Sprintf("ps-1-p%d", srv.Partition())
}

func TestSplitPageServer(t *testing.T) {
	cfg := fastConfig("split")
	cfg.ComputeMemPages = 8
	c := newFastCluster(t, cfg)
	seedRows(t, c, "t", 1500)

	if err := c.SplitPageServer(0); err != nil {
		t.Fatal(err)
	}
	servers := c.PageServers()
	if len(servers) != 2 {
		t.Fatalf("%d servers after split, want 2", len(servers))
	}
	lo0, hi0 := servers[0].Range()
	lo1, hi1 := servers[1].Range()
	if hi0 != lo1 && hi1 != lo0 {
		t.Fatalf("split ranges not adjacent: [%d,%d) [%d,%d)", lo0, hi0, lo1, hi1)
	}
	verifyRows(t, c.Primary().Engine, "t", 1500, "after split")

	// Writes keep flowing to the split halves.
	seedRows(t, c, "t2", 400)
	verifyRows(t, c.Primary().Engine, "t2", 400, "writes after split")
}

func TestBackupAndPITR(t *testing.T) {
	c := newFastCluster(t, fastConfig("pitr"))
	e := c.Primary().Engine
	if err := e.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	mustExec(t, e, func(tx *engine.Tx) error {
		return tx.Put("t", []byte("k"), []byte("v1"))
	})
	if err := c.Backup("bak1"); err != nil {
		t.Fatal(err)
	}
	markLSN := c.Primary().Writer().HardenedEnd()

	// Post-backup history: an update and a "catastrophic" delete.
	mustExec(t, e, func(tx *engine.Tx) error {
		return tx.Put("t", []byte("k"), []byte("v2"))
	})
	mustExec(t, e, func(tx *engine.Tx) error {
		return tx.Delete("t", []byte("k"))
	})

	// Restore to the backup moment: v1 visible.
	restored, _, err := c.PointInTimeRestore(context.Background(), "bak1", markLSN)
	if err != nil {
		t.Fatal(err)
	}
	v, found, err := restored.BeginRO().Get("t", []byte("k"))
	if err != nil || !found || string(v) != "v1" {
		t.Fatalf("PITR@backup: %q %v %v", v, found, err)
	}

	// Restore to end of log: row deleted, matching the live database.
	restoredEnd, _, err := c.PointInTimeRestore(context.Background(), "bak1", 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, found, _ := restoredEnd.BeginRO().Get("t", []byte("k")); found {
		t.Fatal("PITR@end still sees deleted row")
	}
	if _, _, err := c.PointInTimeRestore(context.Background(), "ghost", 0); !errors.Is(err, ErrNoBackup) {
		t.Fatalf("restore of unknown backup: %v", err)
	}
}

func TestBackupIsConstantTime(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock timing assertion; skipped in short mode")
	}
	c := newFastCluster(t, fastConfig("baktime"))
	seedRows(t, c, "t", 1200)
	// First backup pays for draining the dirty set; time the snapshot after
	// a flush so we measure the snapshot itself.
	for _, srv := range c.PageServers() {
		if _, err := srv.FlushForBackup(); err != nil {
			t.Fatal(err)
		}
	}
	start := time.Now()
	if err := c.Backup("b"); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("backup took %v", elapsed)
	}
}

func TestScaleComputeIsO1(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock timing assertion; skipped in short mode")
	}
	c := newFastCluster(t, fastConfig("scale"))
	seedRows(t, c, "t", 600)
	d, err := c.ScaleCompute(512, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d > 10*time.Second {
		t.Fatalf("scale-up took %v", d)
	}
	verifyRows(t, c.Primary().Engine, "t", 600, "after scale-up")
}

func TestAddRemoveSecondary(t *testing.T) {
	c := newFastCluster(t, fastConfig("addrem"))
	seedRows(t, c, "t", 200)
	sec, err := c.AddSecondary("late")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddSecondary("late"); err == nil {
		t.Fatal("duplicate secondary accepted")
	}
	// A late secondary starts at the hardened end with seeded visibility:
	// it can read data committed before it existed.
	verifyRows(t, sec.Engine, "t", 200, "late secondary")
	if err := c.RemoveSecondary("late"); err != nil {
		t.Fatal(err)
	}
	if err := c.RemoveSecondary("late"); err == nil {
		t.Fatal("double remove succeeded")
	}
}

func TestWriteConflictAcrossSessions(t *testing.T) {
	c := newFastCluster(t, fastConfig("conflict"))
	e := c.Primary().Engine
	if err := e.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	mustExec(t, e, func(tx *engine.Tx) error {
		return tx.Put("t", []byte("row"), []byte("base"))
	})
	t1 := e.Begin()
	t2 := e.Begin()
	if err := t1.Put("t", []byte("row"), []byte("from-t1")); err != nil {
		t.Fatal(err)
	}
	if err := t2.Put("t", []byte("row"), []byte("from-t2")); err == nil {
		t.Fatal("second writer did not conflict")
	}
	t2.Abort()
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	v, _, _ := e.BeginRO().Get("t", []byte("row"))
	if string(v) != "from-t1" {
		t.Fatalf("row = %q", v)
	}
}

// TestCloseCheckpointsInOneWritePerServer: closing a freshly loaded
// deployment persists every dirty page, and pays for it with one XStore
// device write per page server — not one per page (the seconds a close used
// to take draining a bulk load one 5.7 ms HDD put at a time).
func TestCloseCheckpointsInOneWritePerServer(t *testing.T) {
	cfg := fastConfig("closeckpt")
	cfg.CheckpointEvery = time.Hour // nothing is swept before Close
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	closed := false
	defer func() {
		if !closed {
			c.Close()
		}
	}()
	seedRows(t, c, "t", 3000)
	if err := c.WaitForCatchUp(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	// The log archive has its own writes; let it finish them first.
	if err := waitDestaged(c, c.LZ.HardenedEnd(), 10*time.Second); err != nil {
		t.Fatal(err)
	}
	servers := c.PageServers()
	// Each covering cache holds every page of its partition, and nothing
	// was swept before Close, so every cached page is a dirty one.
	dirty := 0
	for _, srv := range servers {
		dirty += srv.Cache().Len()
	}
	if dirty < 20 {
		t.Fatalf("only %d dirty pages before Close; the test needs a loaded deployment", dirty)
	}
	_, before, _, _ := c.Store.Stats()
	c.Close()
	closed = true
	_, after, _, _ := c.Store.Stats()
	if got := int(after - before); got > len(servers) {
		t.Fatalf("Close made %d XStore device writes for %d dirty pages on %d page server(s), want one per server",
			got, dirty, len(servers))
	}
	if blobs := c.Store.List("closeckpt/page/"); len(blobs) < dirty {
		t.Fatalf("%d page blobs in XStore after Close, %d pages were dirty", len(blobs), dirty)
	}
}
