package cluster

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"socrates/internal/engine"
	"socrates/internal/page"
)

// Point-in-time-restore edge cases (§4.7): targets below, exactly at, and
// immediately after the backup's snapshot LSN.

// TestRestoreBeforeBackupIsRefused: a target strictly below the backup's
// snapshot LSN cannot be served from that backup (the snapshot already
// contains newer state); the workflow must refuse with the typed error,
// not silently hand back a too-new image.
func TestRestoreBeforeBackupIsRefused(t *testing.T) {
	c := newFastCluster(t, fastConfig("pitrlow"))
	seedRows(t, c, "t", 60)
	early := c.Primary().Writer().HardenedEnd() // strictly below the backup to come
	seedRows(t, c, "t", 120)                    // advance the log past `early`
	if err := c.WaitForCatchUp(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := c.Backup("b"); err != nil {
		t.Fatal(err)
	}
	blsn := backupLSN(t, c, "b")
	if !early.Before(blsn) {
		t.Fatalf("precondition: early %d not below backup snapshot %d", early, blsn)
	}
	_, _, err := c.PointInTimeRestore(context.Background(), "b", early)
	if !errors.Is(err, ErrRestoreBeforeBackup) {
		t.Fatalf("restore below backup: got %v, want ErrRestoreBeforeBackup", err)
	}
}

// TestRestoreExactlyAtBackupLSN: the lowest acceptable target. The replay
// range [backupLSN, backupLSN) is empty — the image is exactly the
// snapshot, containing everything committed before the backup and nothing
// after.
func TestRestoreExactlyAtBackupLSN(t *testing.T) {
	c := newFastCluster(t, fastConfig("pitrat"))
	seedRows(t, c, "t", 100)
	if err := c.WaitForCatchUp(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := c.Backup("b"); err != nil {
		t.Fatal(err)
	}
	blsn := backupLSN(t, c, "b")
	seedRows(t, c, "after", 50) // post-backup writes must NOT appear

	eng, _, err := c.PointInTimeRestore(context.Background(), "b", blsn)
	if err != nil {
		t.Fatalf("restore at backup LSN %d: %v", blsn, err)
	}
	verifyRows(t, eng, "t", 100, "restore exactly at backup LSN")
	if _, found, err := eng.BeginRO().Get("after", []byte("k000000")); err == nil && found {
		t.Fatal("restore at backup LSN leaked a post-backup write")
	}
}

// TestRestoreWithEmptyLogTail: restoring to end-of-log when nothing was
// committed after the backup — the replay loop must handle a log tail
// that is empty (or contains only non-commit records) and still produce
// the full pre-backup state with its visibility timestamp.
func TestRestoreWithEmptyLogTail(t *testing.T) {
	c := newFastCluster(t, fastConfig("pitrtail"))
	seedRows(t, c, "t", 80)
	if err := c.WaitForCatchUp(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := c.Backup("b"); err != nil {
		t.Fatal(err)
	}
	// No writes after the backup: the tail [backupLSN, end) is empty.
	eng, ts, err := c.PointInTimeRestore(context.Background(), "b", 0)
	if err != nil {
		t.Fatalf("restore with empty tail: %v", err)
	}
	if ts == 0 {
		t.Fatal("restored visibility timestamp is zero — pre-backup commits would be invisible")
	}
	verifyRows(t, eng, "t", 80, "restore with empty log tail")
}

// TestBackupSurvivesReclamation: a backup's snapshot pins the page images it
// lists while XStore gives dead segments back around them. Every page is
// rewritten and checkpointed ten times over after the backup; segments of
// the generations in between must have been discarded, every blob version
// the store still lists — live or in the snapshot — must read back whole (a
// read that touches a discarded range is an error, and a zeroed image would
// fail the page checksum), and a restore from the backup serves the rows as
// they were.
func TestBackupSurvivesReclamation(t *testing.T) {
	cfg := fastConfig("pitrgc")
	cfg.CheckpointEvery = time.Hour // one sweep per round, when the drain asks
	c := newFastCluster(t, cfg)
	// Enough rows that a round's rewritten pages fill whole segments apart
	// from the new pages the same sweep writes (which nothing supersedes).
	const rows = 8000
	seedRows(t, c, "t", rows)
	if err := c.WaitForCatchUp(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := c.Backup("b"); err != nil {
		t.Fatal(err)
	}
	blsn := backupLSN(t, c, "b")

	e := c.Primary().Engine
	for round := 0; round < 10; round++ {
		const batch = 100
		for base := 0; base < rows; base += batch {
			mustExec(t, e, func(tx *engine.Tx) error {
				for i := base; i < base+batch; i++ {
					if err := tx.Put("t", []byte(fmt.Sprintf("k%06d", i)),
						[]byte(fmt.Sprintf("round%d-%d", round, i))); err != nil {
						return err
					}
				}
				return nil
			})
		}
		if err := c.WaitForCatchUp(10 * time.Second); err != nil {
			t.Fatal(err)
		}
		if err := c.WaitCheckpointDrain(10 * time.Second); err != nil {
			t.Fatal(err)
		}
	}
	if snap := c.Metrics.Snapshot(); snap.Counters["xstore.reclaimed.bytes"] == 0 {
		t.Fatalf("ten checkpoint generations over the backup and no segment went back: footprint %d",
			snap.Gauges["xstore.footprint_bytes"])
	}

	check := func(what, name string, buf []byte, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s %s: %v", what, name, err)
		}
		if strings.Contains(name, "/page/") {
			if _, err := page.Decode(buf); err != nil {
				t.Fatalf("%s %s: %v", what, name, err)
			}
		}
	}
	for _, name := range c.Store.List("") {
		buf, err := c.Store.Get(name)
		check("live blob", name, buf, err)
	}
	// The backup's versions, read as a restore reads them.
	if err := c.Store.Restore(cfg.Name+"/b", "check/"); err != nil {
		t.Fatal(err)
	}
	for _, name := range c.Store.List("check/") {
		buf, err := c.Store.Get(name)
		check("backup blob", name, buf, err)
	}

	eng, _, err := c.PointInTimeRestore(context.Background(), "b", blsn)
	if err != nil {
		t.Fatalf("restore at backup LSN %d: %v", blsn, err)
	}
	n := 0
	err = eng.BeginRO().Scan("t", nil, nil, func(k, v []byte) bool {
		if want := fmt.Sprintf("v%d", n); string(k) != fmt.Sprintf("k%06d", n) || string(v) != want {
			t.Errorf("restored row %d is %s=%s, want the value at backup time, %s", n, k, v, want)
			return false
		}
		n++
		return true
	})
	if err != nil || n != rows {
		t.Fatalf("restored scan: %d rows (want %d), err %v", n, rows, err)
	}
}

// TestRestoreUnderLoadTwice takes a backup while a writer commits and the
// page server checkpoints every millisecond, so the backup's flush races
// live sweeps, then restores that one backup to end of log twice — the
// second time after more writes, so the replay covers a longer tail over
// the same snapshot. Every write acked before each restore must be in its
// image, and every table must scan whole. About one run in 300 under load
// lost a tail of acked writes while XLOG promotion could stop short of the
// durable end (xlog's TestPromoteFillsPastABlockReleasedDuringItsRead).
func TestRestoreUnderLoadTwice(t *testing.T) {
	cfg := fastConfig("pitrload")
	cfg.LZCapacity = 32 << 20
	cfg.CheckpointEvery = time.Millisecond
	cfg.Secondaries = 1
	cfg.PageServers = 1
	cfg.PagesPerPartition = 1 << 20
	c := newFastCluster(t, cfg)
	const seeded = 400
	tables := []string{"a", "b"}
	for _, tbl := range tables {
		seedRows(t, c, tbl, seeded)
	}

	// The writer's i-th commit puts w<i> into tables[i%2]; acked counts
	// the commits acknowledged so far, so writes [0, acked) are durable.
	var acked atomic.Int64
	stop := make(chan struct{})
	writerErr := make(chan error, 1)
	e := c.Primary().Engine
	go func() {
		defer close(writerErr)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			tx := e.Begin()
			if err := tx.Put(tables[i%2], []byte(fmt.Sprintf("w%06d", i)), []byte("w")); err != nil {
				tx.Abort()
				writerErr <- err
				return
			}
			if err := tx.Commit(); err != nil {
				writerErr <- err
				return
			}
			acked.Add(1)
		}
	}()
	defer func() {
		close(stop)
		if err := <-writerErr; err != nil {
			t.Errorf("writer: %v", err)
		}
	}()
	waitAcked := func(n int64) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for acked.Load() < n {
			if time.Now().After(deadline) {
				t.Fatalf("writer stalled below %d acked writes", n)
			}
			runtime.Gosched()
		}
	}

	waitAcked(200)
	if err := c.Backup("b"); err != nil {
		t.Fatal(err)
	}
	for round := 1; round <= 2; round++ {
		waitAcked(acked.Load() + 300)
		n := acked.Load()
		img, _, err := c.PointInTimeRestore(context.Background(), "b", 0)
		if err != nil {
			t.Fatalf("restore %d: %v", round, err)
		}
		got := map[string]bool{}
		for _, tbl := range tables {
			err := img.BeginRO().Scan(tbl, nil, nil, func(k, _ []byte) bool {
				got[tbl+"/"+string(k)] = true
				return true
			})
			if err != nil {
				t.Fatalf("restore %d: scan %s: %v", round, tbl, err)
			}
		}
		mustHave := func(key string) {
			t.Helper()
			if !got[key] {
				t.Fatalf("restore %d: acked write %s missing (%d writer commits acked)", round, key, n)
			}
		}
		for _, tbl := range tables {
			for i := 0; i < seeded; i++ {
				mustHave(fmt.Sprintf("%s/k%06d", tbl, i))
			}
		}
		for i := int64(0); i < n; i++ {
			mustHave(fmt.Sprintf("%s/w%06d", tables[i%2], i))
		}
	}
}

// backupLSN is the snapshot LSN recorded for a named backup: the log
// position its restore replays from.
func backupLSN(t *testing.T, c *Cluster, name string) page.LSN {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	info, ok := c.backups[name]
	if !ok {
		t.Fatalf("backup %q not recorded", name)
	}
	return info.lsn
}
