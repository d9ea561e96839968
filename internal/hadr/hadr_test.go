package hadr

import (
	"fmt"
	"testing"
	"time"

	"socrates/internal/engine"
	"socrates/internal/rbio"
	"socrates/internal/simdisk"
	"socrates/internal/xstore"
)

func fastConfig(name string) Config {
	return Config{
		Name:           name,
		net:            rbio.NewInstantNetwork(),
		Store:          xstore.New(xstore.Config{Profile: simdisk.Instant}),
		diskProfile:    simdisk.Instant,
		LogBackupEvery: 5 * time.Millisecond,
	}
}

func newFast(t *testing.T, cfg Config) *Cluster {
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
	e := c.Primary().Engine()
	_ = e.CreateTable(table)
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

func countRows(t *testing.T, e *engine.Engine, table string) int {
	t.Helper()
	count := 0
	if err := e.BeginRO().Scan(table, nil, nil, func(k, v []byte) bool {
		count++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return count
}

func TestBootstrapAndCommit(t *testing.T) {
	c := newFast(t, fastConfig("h1"))
	e := c.Primary().Engine()
	if err := e.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	mustExec(t, e, func(tx *engine.Tx) error {
		return tx.Put("t", []byte("k"), []byte("v"))
	})
	v, found, err := e.BeginRO().Get("t", []byte("k"))
	if err != nil || !found || string(v) != "v" {
		t.Fatalf("read: %q %v %v", v, found, err)
	}
}

func TestSecondariesReplicate(t *testing.T) {
	c := newFast(t, fastConfig("h2"))
	seedRows(t, c, "t", 300)
	end := c.Writer().HardenedEnd()
	for _, sec := range c.Secondaries() {
		if !sec.WaitApplied(end, 5*time.Second) {
			t.Fatalf("%s lagging", sec.name)
		}
		if got := countRows(t, sec.Engine(), "t"); got != 300 {
			t.Fatalf("%s has %d rows", sec.name, got)
		}
	}
}

func TestQuorumToleratesOneSecondaryDown(t *testing.T) {
	c := newFast(t, fastConfig("h3"))
	seedRows(t, c, "t", 50)
	// One secondary vanishes: quorum is 3 of 4, still reachable.
	c.net.Unserve(c.Secondaries()[0].name)
	seedRows(t, c, "t2", 50)
	if got := countRows(t, c.Primary().Engine(), "t2"); got != 50 {
		t.Fatalf("rows = %d", got)
	}
	// The flexible quorum's invariant: what the writer calls hardened is
	// held by the primary and by at least quorum-1 secondaries.
	end := c.Writer().HardenedEnd()
	if c.Primary().hardenedLSN().Before(end) {
		t.Fatalf("hardened end %d past the primary's prefix %d", end, c.Primary().hardenedLSN())
	}
	covered := 0
	for _, sec := range c.Secondaries() {
		if !sec.hardenedLSN().Before(end) {
			covered++
		}
	}
	if need := quorum - 1; covered < need {
		t.Fatalf("hardened end %d covered by %d secondaries, need %d", end, covered, need)
	}
}

func TestQuorumLossBlocksCommits(t *testing.T) {
	c := newFast(t, fastConfig("h4"))
	seedRows(t, c, "t", 10)
	// Two secondaries down: 2 of 4 nodes < quorum 3.
	c.net.Unserve(c.Secondaries()[0].name)
	c.net.Unserve(c.Secondaries()[1].name)
	e := c.Primary().Engine()
	tx := e.Begin()
	if err := tx.Put("t", []byte("x"), []byte("y")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err == nil {
		t.Fatal("commit succeeded without quorum")
	}
}

func TestFailoverPromotesSecondary(t *testing.T) {
	c := newFast(t, fastConfig("h5"))
	seedRows(t, c, "t", 200)
	before := c.Primary().Engine().Clock().Visible()

	promoted, elapsed, err := c.Failover()
	if err != nil {
		t.Fatal(err)
	}
	if elapsed > 10*time.Second {
		t.Fatalf("failover took %v", elapsed)
	}
	if promoted.Engine().Clock().Visible() < before {
		t.Fatal("visibility regressed")
	}
	if got := countRows(t, promoted.Engine(), "t"); got != 200 {
		t.Fatalf("promoted node has %d rows", got)
	}
	// New primary keeps writing with the remaining quorum (3 nodes, need 3).
	seedRows(t, c, "t2", 60)
	if got := countRows(t, promoted.Engine(), "t2"); got != 60 {
		t.Fatalf("post-failover rows = %d", got)
	}
}

func TestSeedNewReplicaIsSizeOfData(t *testing.T) {
	c := newFast(t, fastConfig("h6"))
	seedRows(t, c, "t", 100)
	_, copiedSmall, _, err := c.SeedNewReplica("h6-new1")
	if err != nil {
		t.Fatal(err)
	}
	seedRows(t, c, "t", 2000)
	_, copiedLarge, _, err := c.SeedNewReplica("h6-new2")
	if err != nil {
		t.Fatal(err)
	}
	// The copy cost grows with the database — the O(size-of-data) property
	// Socrates eliminates.
	if copiedLarge < copiedSmall*2 {
		t.Fatalf("seeding cost did not scale: %d then %d bytes", copiedSmall, copiedLarge)
	}
	// And the new replica actually serves reads.
	sec := c.Secondaries()[len(c.Secondaries())-1]
	if !sec.WaitApplied(c.Writer().HardenedEnd(), 5*time.Second) {
		t.Fatal("seeded replica lagging")
	}
	if got := countRows(t, sec.Engine(), "t"); got != 2000 {
		t.Fatalf("seeded replica rows = %d", got)
	}
}

func TestStorageImpactIsFourCopies(t *testing.T) {
	c := newFast(t, fastConfig("h7"))
	seedRows(t, c, "t", 500)
	end := c.Writer().HardenedEnd()
	for _, sec := range c.Secondaries() {
		if !sec.WaitApplied(end, 5*time.Second) {
			t.Fatal("secondary lagging")
		}
	}
	prim := c.Primary().DataBytes()
	total := c.TotalDataBytes()
	if ratio := float64(total) / float64(prim); ratio < 3.5 || ratio > 4.5 {
		t.Fatalf("storage ratio = %.1fx, want ~4x", ratio)
	}
}

func TestLogBackupThrottlesProduction(t *testing.T) {
	cfg := fastConfig("h8")
	// Tiny backup budget + heavily capped backup egress: production must
	// stall on the backup drain.
	cfg.BackupLagBudget = 32 << 10
	cfg.Store = xstore.New(xstore.Config{Profile: simdisk.Instant, IngestMBps: 0.25})
	cfg.LogBackupEvery = time.Millisecond
	c := newFast(t, cfg)

	e := c.Primary().Engine()
	_ = e.CreateTable("t")
	payload := make([]byte, 1024)
	for i := 0; i < 400; i++ {
		mustExec(t, e, func(tx *engine.Tx) error {
			return tx.Put("t", []byte(fmt.Sprintf("k%04d", i%50)), payload)
		})
	}
	throttles := c.Throttles()
	if throttles == 0 {
		t.Fatal("log production never throttled on backup egress")
	}
}

func TestBackupKeepsUpWithRoomyBudget(t *testing.T) {
	cfg := fastConfig("h9")
	cfg.BackupLagBudget = 64 << 20
	c := newFast(t, cfg)
	seedRows(t, c, "t", 300)
	throttles := c.Throttles()
	if throttles != 0 {
		t.Fatalf("throttled %d times despite huge budget", throttles)
	}
	// Backup blob actually accumulates bytes.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if size, err := c.store.Size("h9/logbackup"); err == nil && size > 0 {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("log backup never reached XStore")
}

func TestSnapshotIsolationOnSecondary(t *testing.T) {
	c := newFast(t, fastConfig("h10"))
	e := c.Primary().Engine()
	_ = e.CreateTable("t")
	mustExec(t, e, func(tx *engine.Tx) error {
		return tx.Put("t", []byte("k"), []byte("v1"))
	})
	sec := c.Secondaries()[0]
	if !sec.WaitApplied(c.Writer().HardenedEnd(), 5*time.Second) {
		t.Fatal("lag")
	}
	reader := sec.Engine().BeginRO()
	mustExec(t, e, func(tx *engine.Tx) error {
		return tx.Put("t", []byte("k"), []byte("v2"))
	})
	if !sec.WaitApplied(c.Writer().HardenedEnd(), 5*time.Second) {
		t.Fatal("lag")
	}
	// Old snapshot still sees v1; new snapshot sees v2.
	v, _, err := reader.Get("t", []byte("k"))
	if err != nil || string(v) != "v1" {
		t.Fatalf("pinned snapshot: %q %v", v, err)
	}
	v, _, _ = sec.Engine().BeginRO().Get("t", []byte("k"))
	if string(v) != "v2" {
		t.Fatalf("fresh snapshot: %q", v)
	}
}

func TestCommitLatencyRealistic(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	// Real AZ-link latency: a commit pays at least the quorum round trip.
	cfg := Config{
		Name:        "lat",
		Store:       xstore.New(xstore.Config{Profile: simdisk.Instant}),
		diskProfile: simdisk.Instant,
	}
	c := newFast(t, cfg)
	e := c.Primary().Engine()
	_ = e.CreateTable("t")
	// Warm up.
	mustExec(t, e, func(tx *engine.Tx) error { return tx.Put("t", []byte("w"), []byte("x")) })

	blocksBefore, _ := c.Writer().Stats()
	var total time.Duration
	const n = 10
	for i := 0; i < n; i++ {
		start := time.Now()
		mustExec(t, e, func(tx *engine.Tx) error {
			return tx.Put("t", []byte(fmt.Sprintf("k%d", i)), []byte("v"))
		})
		total += time.Since(start)
	}
	// A solo commit on an idle log is cut at once: one block each.
	if blocks, _ := c.Writer().Stats(); blocks-blocksBefore != n {
		t.Fatalf("%d sequential solo commits shipped %d blocks, want %d", n, blocks-blocksBefore, n)
	}
	// Simulated sleeps never undershoot, so the round trip is a floor.
	if avg := total / n; avg < 1*time.Millisecond {
		t.Fatalf("HADR commit latency = %v, want at least an AZ round trip", avg)
	}
}

// A log stalled on backup lag still closes: the leader held in the throttle
// gives up its group, every committer gets an error, and Close and a
// Failover's close of the old log return. The backup's egress is zero (an
// XStore outage), so nothing but the close can release the leader.
func TestCloseReleasesAThrottledLog(t *testing.T) {
	for _, tc := range []struct {
		name  string
		close func(*testing.T, *Cluster)
	}{
		{"close", func(_ *testing.T, c *Cluster) { c.Close() }},
		{"failover", func(t *testing.T, c *Cluster) {
			if _, _, err := c.Failover(); err != nil {
				t.Errorf("failover: %v", err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := fastConfig("h-stall-" + tc.name)
			cfg.BackupLagBudget = 32 << 10
			cfg.LogBackupEvery = time.Millisecond
			c := newFast(t, cfg)
			e := c.Primary().Engine()
			if err := e.CreateTable("t"); err != nil {
				t.Fatal(err)
			}
			c.store.SetOutage(true)
			const committers = 4
			errs := make(chan error, committers)
			payload := make([]byte, 1024)
			for i := 0; i < committers; i++ {
				go func(i int) {
					for j := 0; ; j++ {
						tx := e.Begin()
						if err := tx.Put("t", []byte(fmt.Sprintf("c%d-%06d", i, j)), payload); err != nil {
							tx.Abort()
							errs <- err
							return
						}
						if err := tx.Commit(); err != nil {
							errs <- err
							return
						}
					}
				}(i)
			}
			// Step to a leader held in the throttle. Nothing broadcasts when
			// one enters it, so look until one has; with no egress it stays.
			c.mu.Lock()
			r := c.repl
			c.mu.Unlock()
			for r.throttles.Load() == 0 {
				time.Sleep(100 * time.Microsecond)
			}

			tc.close(t, c)
			for i := 0; i < committers; i++ {
				if err := <-errs; err == nil {
					t.Fatal("a committer stopped without an error")
				}
			}
		})
	}
}
