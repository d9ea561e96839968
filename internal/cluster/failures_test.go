package cluster

import (
	"fmt"
	"testing"
	"time"

	"socrates/internal/engine"
	"socrates/internal/simdisk"
)

// TestLZReplicaFailureWithinQuorum kills one landing-zone replica; commits
// continue on the remaining quorum (2 of 3).
func TestLZReplicaFailureWithinQuorum(t *testing.T) {
	c := newFastCluster(t, fastConfig("lzfail"))
	seedRows(t, c, "t", 50)

	// Reach the replicated volume under the landing zone and fail one copy.
	reps := lzReplicas(t, c)
	reps[0].SetOutage(true)
	seedRows(t, c, "t2", 50)
	verifyRows(t, c.Primary().Engine, "t2", 50, "commits with 2/3 LZ replicas")

	// The replica recovers; the system is none the wiser.
	reps[0].SetOutage(false)
	seedRows(t, c, "t3", 50)
	verifyRows(t, c.Primary().Engine, "t3", 50, "after replica recovery")
}

// lzReplicas fetches the simulated replica devices under the landing
// zone (the chaos harness uses the same accessor).
func lzReplicas(t *testing.T, c *Cluster) []*simdisk.Device {
	t.Helper()
	reps := c.LZReplicas()
	if len(reps) == 0 {
		t.Skip("cluster built without a replicated LZ volume")
	}
	return reps
}

// TestXStoreOutageDuringWorkload: checkpoints defer, serving continues,
// and checkpointing resumes after the outage (§4.6 insulation, end to end).
func TestXStoreOutageDuringWorkload(t *testing.T) {
	c := newFastCluster(t, fastConfig("xsout"))
	seedRows(t, c, "t", 100)

	c.Store.SetOutage(true)
	seedRows(t, c, "t2", 100) // writes keep flowing
	verifyRows(t, c.Primary().Engine, "t2", 100, "reads during XStore outage")

	c.Store.SetOutage(false)
	if err := c.WaitForCatchUp(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	// Checkpoints drain once the store is back.
	if err := c.WaitCheckpointDrain(5 * time.Second); err != nil {
		t.Fatalf("checkpointing never caught up after the outage: %v", err)
	}
}

// TestReorderedFeedConverges runs with an artificially reordering feed
// channel; the pending area must reorder into LSN order.
func TestReorderedFeedConverges(t *testing.T) {
	cfg := fastConfig("reorder")
	cfg.Secondaries = 1
	c := newFastCluster(t, cfg)
	c.Net.SetReorderWindow(2 * time.Millisecond)
	seedRows(t, c, "t", 300)
	sec, _ := c.Secondary("sec-0")
	if !sec.WaitApplied(c.Primary().Writer().HardenedEnd(), 10*time.Second) {
		t.Fatal("secondary stuck behind reordered feed")
	}
	verifyRows(t, sec.Engine, "t", 300, "secondary after reordered feed")
}

// TestSnapshotTooOldSurfaces: after aggressive version truncation, an
// ancient snapshot fails loudly instead of returning wrong data.
func TestSnapshotTooOldSurfaces(t *testing.T) {
	c := newFastCluster(t, fastConfig("vsold"))
	e := c.Primary().Engine
	if err := e.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	mustExec(t, e, func(tx *engine.Tx) error {
		return tx.Put("t", []byte("k"), []byte("v1"))
	})
	old := e.BeginRO() // pinned ancient snapshot
	for i := 0; i < 5; i++ {
		mustExec(t, e, func(tx *engine.Tx) error {
			return tx.Put("t", []byte("k"), []byte(fmt.Sprintf("v%d", i+2)))
		})
	}
	e.TruncateVersions(e.Clock().Visible())
	if _, _, err := old.Get("t", []byte("k")); err == nil {
		t.Fatal("ancient snapshot read succeeded after truncation")
	}
}

// TestSequentialFailovers exercises repeated crash/recover cycles.
func TestSequentialFailovers(t *testing.T) {
	c := newFastCluster(t, fastConfig("refail"))
	seedRows(t, c, "t", 100)
	for round := 0; round < 3; round++ {
		if _, _, err := c.Failover(); err != nil {
			t.Fatalf("failover %d: %v", round, err)
		}
		seedRows(t, c, fmt.Sprintf("t%d", round), 30)
		verifyRows(t, c.Primary().Engine, "t", 100, fmt.Sprintf("round %d base", round))
		verifyRows(t, c.Primary().Engine, fmt.Sprintf("t%d", round), 30,
			fmt.Sprintf("round %d new", round))
	}
}
