package hadr

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"socrates/internal/engine"
	"socrates/internal/page"
	"socrates/internal/simdisk"
	"socrates/internal/wal"
)

// testBlock builds a block of noop records covering [start, end).
func testBlock(start, end page.LSN) *wal.Block {
	b := &wal.Block{Start: start, End: end}
	for lsn := start; lsn.Before(end); lsn = lsn.Next() {
		b.Records = append(b.Records, &wal.Record{LSN: lsn, Kind: wal.KindNoop})
	}
	return b
}

// deliver hands the node one block as the wire would: its encoding, decoded
// afresh, so no two nodes share records.
func deliver(t *testing.T, n *Node, payload []byte) page.LSN {
	t.Helper()
	b, size, err := wal.DecodeBlock(payload)
	if err != nil {
		t.Fatal(err)
	}
	prefix, err := n.hardenFeed(b, payload[:size])
	if err != nil {
		t.Fatal(err)
	}
	n.mu.Lock()
	applied, hardenedTo := n.AppliedLSN(), n.hardenedTo
	n.mu.Unlock()
	if applied.After(hardenedTo) {
		t.Fatalf("applied %d is past the prefix %d", applied, hardenedTo)
	}
	if prefix.After(hardenedTo) {
		t.Fatalf("acknowledged %d, holds %d", prefix, hardenedTo)
	}
	return prefix
}

// pagesOf returns the encoded pages of a node's full copy.
func pagesOf(t *testing.T, n *Node) map[page.ID][]byte {
	t.Helper()
	out := make(map[page.ID][]byte)
	n.pages.Range(func(pg *page.Page) bool {
		enc, err := pg.Encode()
		if err != nil {
			t.Fatal(err)
		}
		out[pg.ID] = enc
		return true
	})
	return out
}

// Redo is idempotent only when a page's records reach it in log order: the
// page-LSN test drops a record older than the page. Ships are pipelined and
// arrive in any order, so a node must apply its prefix, not its arrivals.
// Each schedule below delivers the blocks of a real workload to a fresh node
// out of order; the node must end with the primary's pages.
func TestApplyFollowsLogOrder(t *testing.T) {
	c := newFast(t, fastConfig("h-order"))
	seedRows(t, c, "t", 200)
	prim := c.Primary()
	end := prim.HardenedTo()
	if end != c.Writer().HardenedEnd() {
		t.Fatalf("primary prefix %d, quorum %d", end, c.Writer().HardenedEnd())
	}
	prim.mu.Lock()
	var log [][]byte
	for _, tb := range prim.tail {
		log = append(log, tb.payload)
	}
	prim.mu.Unlock()
	last := len(log) - 1
	if last < 3 {
		t.Fatalf("workload made %d blocks, need a few", len(log))
	}
	want := pagesOf(t, prim)

	inOrder := make([]int, len(log))
	for i := range inOrder {
		inOrder[i] = i
	}
	lastTwoSwapped := append(append([]int(nil), inOrder[:last-1]...), last, last-1)
	reversed := make([]int, len(log))
	for i := range reversed {
		reversed[i] = last - i
	}
	// A hole at last-2: the block above it arrives twice, then the hole
	// fills, then the block arrives a third time.
	twiceAroundHole := append(append([]int(nil), inOrder[:last-2]...), last-1, last-1, last, last-2, last-1)

	for name, order := range map[string][]int{
		"in order":                inOrder,
		"last two swapped":        lastTwoSwapped,
		"reversed":                reversed,
		"twice around a hole":     twiceAroundHole,
		"everything twice":        append(append([]int(nil), reversed...), inOrder...),
		"swapped then duplicated": append(append([]int(nil), lastTwoSwapped...), last-1, last),
	} {
		t.Run(name, func(t *testing.T) {
			n, err := newNode("fresh", simdisk.Instant, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer n.stop()
			n.startApply()
			for _, i := range order {
				deliver(t, n, log[i])
			}
			if got := n.HardenedTo(); got != end {
				t.Fatalf("prefix %d after every block, want %d", got, end)
			}
			if !n.WaitApplied(end, 5*time.Second) {
				t.Fatalf("applied %d, want %d", n.AppliedLSN(), end)
			}
			if size := n.logDev.Size(); size != prim.logDev.Size() {
				t.Fatalf("local log holds %d bytes, the primary's %d: a block was appended twice or not at all", size, prim.logDev.Size())
			}
			if err := n.openSecondaryEngine(); err != nil {
				t.Fatal(err)
			}
			if got := countRows(t, n.Engine(), "t"); got != 200 {
				t.Fatalf("%d rows, want 200", got)
			}
			got := pagesOf(t, n)
			if len(got) != len(want) {
				t.Fatalf("%d pages, the primary has %d", len(got), len(want))
			}
			for id, enc := range want {
				if !bytes.Equal(got[id], enc) {
					t.Fatalf("page %d differs from the primary's", id)
				}
			}
		})
	}
}

// shipsFailed waits until the primary's log has recorded a hole on the
// secondary: a ship to it has failed for good, retries included.
func shipsFailed(t *testing.T, c *Cluster, name string) {
	t.Helper()
	c.mu.Lock()
	r := c.repl
	c.mu.Unlock()
	r.mu.Lock()
	defer r.mu.Unlock()
	for p := r.peers[name]; !p.acked.Before(p.needTo); {
		r.cond.Wait() // every failed ship broadcasts
	}
}

func commitOne(e *engine.Engine, table, key string) error {
	tx := e.Begin()
	if err := tx.Put(table, []byte(key), []byte("v")); err != nil {
		tx.Abort()
		return err
	}
	return tx.Commit()
}

// A secondary that missed ships holds a shorter prefix. It may count in a
// quorum again only once it holds the blocks: fed from the primary's tail by
// the writer in office or by the writer a Failover installs, or not at all.
func TestStragglerCatchesUpOrLeaves(t *testing.T) {
	t.Run("fed by the steady-state writer", func(t *testing.T) {
		c := newFast(t, fastConfig("h-lag1"))
		seedRows(t, c, "t", 50)
		straggler := c.Secondaries()[2]
		c.Net.Unserve(straggler.name)
		seedRows(t, c, "dark", 50)
		shipsFailed(t, c, straggler.name)
		if !straggler.HardenedTo().Before(c.Writer().HardenedEnd()) {
			t.Fatal("straggler did not fall behind while dark")
		}
		c.Net.Serve(straggler.name, straggler.handler())
		// The first ship it answers brings the tail with it.
		seedRows(t, c, "after", 1)
		end := c.Writer().HardenedEnd()
		if !straggler.WaitApplied(end, 5*time.Second) {
			t.Fatalf("straggler at %d (prefix %d), cluster at %d", straggler.AppliedLSN(), straggler.HardenedTo(), end)
		}
		if got := countRows(t, straggler.Engine(), "dark"); got != 50 {
			t.Fatalf("straggler has %d of the 50 rows written while it was dark", got)
		}
	})

	t.Run("fed by the writer after a failover", func(t *testing.T) {
		c := newFast(t, fastConfig("h-lag2"))
		seedRows(t, c, "t", 50)
		straggler := c.Secondaries()[2]
		c.Net.Unserve(straggler.name)
		seedRows(t, c, "dark", 50)
		shipsFailed(t, c, straggler.name)
		c.Net.Serve(straggler.name, straggler.handler())

		promoted, _, err := c.Failover()
		if err != nil {
			t.Fatal(err)
		}
		if promoted == straggler {
			t.Fatal("the shortest prefix was promoted")
		}
		// Quorum 3 over the 3 nodes left: every commit needs the straggler.
		seedRows(t, c, "after", 50)
		end := c.Writer().HardenedEnd()
		secs := c.Secondaries()
		if len(secs) != 2 {
			t.Fatalf("%d secondaries after failover, want 2", len(secs))
		}
		for _, s := range secs {
			if s.HardenedTo().Before(end) {
				t.Fatalf("%s counted in a 3-of-3 quorum through %d holding %d", s.name, end, s.HardenedTo())
			}
			if !s.WaitApplied(end, 5*time.Second) {
				t.Fatalf("%s applied %d, want %d", s.name, s.AppliedLSN(), end)
			}
			for table, want := range map[string]int{"t": 50, "dark": 50, "after": 50} {
				if got := countRows(t, s.Engine(), table); got != want {
					t.Fatalf("%s has %d of %d rows of %q", s.name, got, want, table)
				}
			}
		}
	})

	t.Run("too far behind leaves", func(t *testing.T) {
		c := newFast(t, fastConfig("h-lag3"))
		e := c.Primary().Engine()
		if err := e.CreateTable("t"); err != nil {
			t.Fatal(err)
		}
		straggler := c.Secondaries()[2]
		c.Net.Unserve(straggler.name)
		for i := 0; i < tailMax+8; i++ { // one block each
			if err := commitOne(e, "t", fmt.Sprintf("k%04d", i)); err != nil {
				t.Fatal(err)
			}
		}
		shipsFailed(t, c, straggler.name)
		c.Net.Serve(straggler.name, straggler.handler())

		promoted, _, err := c.Failover()
		if err != nil {
			t.Fatal(err)
		}
		// The first ship the straggler answers finds the promoted node's log
		// begins after its prefix ends: it leaves, and the primary plus one
		// secondary cannot make a quorum of 3.
		e = promoted.Engine()
		if err := commitOne(e, "t", "short"); !errors.Is(err, ErrNoQuorum) {
			t.Fatalf("commit with 2 of 3 nodes: %v, want ErrNoQuorum", err)
		}
		for _, s := range c.Secondaries() {
			if s == straggler {
				t.Fatalf("straggler at %d still a secondary; the promoted node's log begins at %d",
					straggler.HardenedTo(), promoted.tail[0].start)
			}
		}
		if _, _, _, err := c.SeedNewReplica("h-lag3-new"); err != nil {
			t.Fatal(err)
		}
		if err := commitOne(e, "t", "whole"); err != nil {
			t.Fatalf("commit after reseeding: %v", err)
		}
		end := c.Writer().HardenedEnd()
		for _, s := range c.Secondaries() {
			if !s.WaitApplied(end, 5*time.Second) {
				t.Fatalf("%s applied %d, want %d", s.name, s.AppliedLSN(), end)
			}
			// Every acknowledged row, and the one whose commit was refused:
			// its block stayed in the log and hardened with the next.
			if got := countRows(t, s.Engine(), "t"); got != tailMax+8+2 {
				t.Fatalf("%s has %d rows, want %d", s.name, got, tailMax+8+2)
			}
		}
	})
}

// A failover may promote only a node that holds every acknowledged commit. If
// none does, it says so at once rather than wait for blocks nobody will send.
func TestFailoverNeedsTheHardenedLog(t *testing.T) {
	c := newFast(t, fastConfig("h-short"))
	secs := c.Secondaries()
	c.Net.Unserve(secs[0].name) // it misses every ship
	seedRows(t, c, "t", 10)
	// The two that hold the log leave the replica set, as a secondary the
	// primary's tail no longer reaches does.
	for _, s := range secs[1:] {
		c.evict(s.name)
	}
	start := time.Now()
	_, _, err := c.Failover()
	if !errors.Is(err, ErrNoQuorum) {
		t.Fatalf("failover onto secondaries that lack acknowledged commits: %v, want ErrNoQuorum", err)
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("failover took %v to find no candidate", took)
	}
}

// A block delivered twice is appended once and acknowledged the same, and a
// block held above a hole reaches the apply queue after the hole fills, once.
func TestHardenFeedDedupesRetransmits(t *testing.T) {
	n, err := newNode("dedupe-0", simdisk.Instant, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer n.stop()
	b1, b2, b3 := testBlock(1, 3), testBlock(3, 5), testBlock(5, 7)
	queued := func() []page.LSN {
		n.mu.Lock()
		defer n.mu.Unlock()
		var starts []page.LSN
		for _, b := range n.queue {
			starts = append(starts, b.Start)
		}
		return starts
	}

	if prefix := deliver(t, n, b1.Encode()); prefix != 3 {
		t.Fatalf("first feed: prefix %d", prefix)
	}
	sizeAfterFirst := n.logDev.Size()
	if prefix := deliver(t, n, b1.Encode()); prefix != 3 {
		t.Fatalf("duplicate feed: prefix %d", prefix)
	}
	if n.logDev.Size() != sizeAfterFirst {
		t.Fatal("duplicate feed re-appended to the local log")
	}

	// A block above a hole is hardened and held: neither acknowledged nor
	// applied until the hole fills.
	if prefix := deliver(t, n, b3.Encode()); prefix != 3 {
		t.Fatalf("block above a hole: prefix %d", prefix)
	}
	if got := queued(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("queue holds %v with a hole at 3, want [1]", got)
	}
	sizeWithHeld := n.logDev.Size()
	if prefix := deliver(t, n, b2.Encode()); prefix != 7 {
		t.Fatalf("hole filled: prefix %d, want 7 (the held block joins the prefix)", prefix)
	}
	if prefix := deliver(t, n, b3.Encode()); prefix != 7 {
		t.Fatalf("late duplicate of the held block: prefix %d", prefix)
	}
	if got := queued(); len(got) != 3 || got[0] != 1 || got[1] != 3 || got[2] != 5 {
		t.Fatalf("queue holds %v, want [1 3 5]", got)
	}
	if want := sizeWithHeld + int64(len(b2.Encode())); n.logDev.Size() != want {
		t.Fatalf("local log is %d bytes, want %d", n.logDev.Size(), want)
	}
}
