// Package hadr implements the pre-Socrates SQL DB architecture (§2,
// Figure 1): a log-replicated state machine of four nodes — one primary and
// three secondaries — each holding a full local copy of the database.
//
// It is the evaluation baseline for every comparison in the paper:
//
//   - commits harden by achieving quorum across the replica set (the
//     primary's local log write plus acknowledgements from secondaries),
//     paying a cross-availability-zone round trip (~3 ms, Table 1);
//   - the primary must also drive the log backup to XStore itself, every
//     "five minutes"; when the backup egress cannot keep up, log production
//     throttles — the bottleneck behind Table 5;
//   - every operational workflow is O(size-of-data): seeding a new replica
//     copies the whole database, and scale-up is a reseed (Table 1).
package hadr

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"socrates/internal/btree"
	"socrates/internal/engine"
	"socrates/internal/fcb"
	"socrates/internal/metrics"
	"socrates/internal/obs"
	"socrates/internal/page"
	"socrates/internal/rbio"
	"socrates/internal/simdisk"
	"socrates/internal/wal"
	"socrates/internal/xstore"
)

// AZLink models one cross-availability-zone network hop, the latency HADR
// pays on every quorum commit.
var AZLink = simdisk.Profile{
	Name:       "az-link",
	ReadBase:   1300 * time.Microsecond,
	WriteBase:  1300 * time.Microsecond,
	PerKB:      250 * time.Nanosecond,
	JitterFrac: 0.15,
	TailProb:   0.001,
	TailFactor: 12,
	ReadCPU:    10 * time.Microsecond,
	WriteCPU:   10 * time.Microsecond,
}

// ErrNoQuorum reports a commit that could not reach enough replicas.
var ErrNoQuorum = errors.New("hadr: replication quorum lost")

// Config describes an HADR deployment.
type Config struct {
	// Name prefixes node addresses and backup blobs.
	Name string
	// Replicas is the node count including the primary (default 4).
	Replicas int
	// Quorum is the number of nodes (including the primary) that must
	// harden a block before commit (default 3).
	Quorum int
	// Net is the replication fabric (default: an AZLink-latency network).
	Net *rbio.Network
	// Store is the XStore account receiving log/full backups.
	Store *xstore.Store
	// LogBackupEvery is the log backup cadence — the paper's five minutes,
	// scaled (default 25 ms).
	LogBackupEvery time.Duration
	// BackupLagBudget is how many un-backed-up log bytes may accumulate
	// before log production throttles (the local log cannot be truncated
	// past the backup point; default 1 MiB).
	BackupLagBudget int64
	// DiskProfile is the node-local storage class (default LocalSSD).
	DiskProfile simdisk.Profile
	// PrimaryCores sizes the primary's CPU meter (default 8).
	PrimaryCores int
	// Waits receives wait-event accounting for the deployment:
	// commit.harden/commit.quorum on the writer, backpressure on the
	// backup-lag throttle, xlog.feed when callers block on a secondary's
	// apply watermark. Nil disables recording.
	Waits *obs.WaitRecorder
}

func (c *Config) applyDefaults() {
	if c.Name == "" {
		c.Name = "hadr"
	}
	if c.Replicas == 0 {
		c.Replicas = 4
	}
	if c.Quorum == 0 {
		c.Quorum = 3
	}
	if c.LogBackupEvery == 0 {
		c.LogBackupEvery = 25 * time.Millisecond
	}
	if c.BackupLagBudget == 0 {
		c.BackupLagBudget = 1 << 20
	}
	if c.DiskProfile.Name == "" {
		c.DiskProfile = simdisk.LocalSSD
	}
	if c.PrimaryCores == 0 {
		c.PrimaryCores = 8
	}
}

// Node is one HADR replica: a full local database copy plus a local log.
type Node struct {
	name   string
	pages  *bufferedFile
	disk   *simdisk.Device
	logDev *simdisk.Device
	logEnd int64

	mu      sync.Mutex
	cond    *sync.Cond
	queue   []*wal.Block // hardened locally, not yet applied
	applied page.LSN
	maxTS   uint64         // highest applied commit timestamp
	engine  *engine.Engine // read-only while secondary; nil until first open

	// One-way replication bookkeeping: hardenedTo is the contiguous
	// locally-hardened prefix (the cumulative ack watermark — one ack
	// frame carrying it acknowledges every block below). future holds
	// blocks hardened above the prefix (one-way ships can reorder or lose
	// frames), keyed by start LSN; feeding marks ships being hardened
	// right now, so a retransmitted duplicate never double-appends to the
	// local log.
	hardenedTo page.LSN
	future     map[page.LSN]page.LSN
	feeding    map[page.LSN]bool

	// ack carries cumulative one-way harden acks back to the primary's
	// ack endpoint. Lossy by contract: the primary retransmits un-acked
	// blocks round-trip, so a dropped ack costs latency, never a commit.
	ack *rbio.Client

	waits *obs.WaitRecorder

	done chan struct{}
	wg   sync.WaitGroup
}

func newNode(name string, diskProfile simdisk.Profile, meter *metrics.CPUMeter) (*Node, error) {
	var opts []simdisk.Option
	if meter != nil {
		opts = append(opts, simdisk.WithCPU(meter))
	}
	disk := simdisk.New(diskProfile, opts...)
	pages, err := newBufferedFile(disk)
	if err != nil {
		return nil, fmt.Errorf("hadr: opening %s page store: %w", name, err)
	}
	n := &Node{
		name:       name,
		pages:      pages,
		disk:       disk,
		logDev:     simdisk.New(diskProfile, opts...),
		applied:    1,
		hardenedTo: 1,
		future:     make(map[page.LSN]page.LSN),
		feeding:    make(map[page.LSN]bool),
		done:       make(chan struct{}),
	}
	n.cond = sync.NewCond(&n.mu)
	return n, nil
}

// Name reports the node name.
func (n *Node) Name() string { return n.name }

// AppliedLSN reports the node's apply watermark.
func (n *Node) AppliedLSN() page.LSN {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.applied
}

// Engine returns the node's engine (read-only on secondaries).
func (n *Node) Engine() *engine.Engine { return n.engine }

// harden persists a block to the node's local log. It is the durability
// half of the replicated state machine.
func (n *Node) harden(b *wal.Block) error {
	enc := b.Encode()
	n.mu.Lock()
	off := n.logEnd
	n.logEnd += int64(len(enc))
	n.mu.Unlock()
	return n.logDev.WriteAt(enc, off)
}

// HardenedTo reports the node's contiguous locally-hardened prefix — the
// cumulative ack watermark it reports to the primary.
func (n *Node) HardenedTo() page.LSN {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.hardenedTo
}

// hardenFeed ingests one shipped block: it drops duplicates (one-way ship
// retransmits re-deliver blocks), hardens fresh blocks to the local log,
// queues them for apply, and advances the contiguous ack watermark. The
// returned LSN is the cumulative watermark — acknowledging it acknowledges
// every block below it, so one ack frame covers a whole pipelined batch.
func (n *Node) hardenFeed(b *wal.Block) (page.LSN, error) {
	n.mu.Lock()
	if !b.End.After(n.hardenedTo) || n.future[b.Start] != 0 || n.feeding[b.Start] {
		// Duplicate delivery (a retransmit raced the original, or the
		// original's ack was lost): the block is already durable here.
		// Re-report the watermark; never re-append to the local log.
		cum := n.hardenedTo
		n.mu.Unlock()
		return cum, nil
	}
	n.feeding[b.Start] = true
	n.mu.Unlock()

	err := n.harden(b)
	n.mu.Lock()
	delete(n.feeding, b.Start)
	if err != nil {
		cum := n.hardenedTo
		n.mu.Unlock()
		return cum, err
	}
	n.future[b.Start] = b.End
	for {
		end, ok := n.future[n.hardenedTo]
		if !ok {
			break
		}
		delete(n.future, n.hardenedTo)
		n.hardenedTo = end
	}
	cum := n.hardenedTo
	n.mu.Unlock()
	n.enqueue(b)
	return cum, nil
}

// reportHarden fires a cumulative one-way harden ack at the primary. Loss
// is tolerable by contract: a later ack supersedes it, and the primary
// retransmits any block whose ack never arrives.
func (n *Node) reportHarden(cum page.LSN) {
	n.mu.Lock()
	ack := n.ack
	n.mu.Unlock()
	if ack == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), shipTimeout)
	defer cancel()
	//socrates:ignore-err lossy cumulative ack; the primary's retransmit path recovers
	_ = ack.Send(ctx, &rbio.Request{
		Type:     rbio.MsgHardenReport,
		LSN:      cum,
		Consumer: n.name,
	})
}

// setAckClient wires the node's cumulative-ack channel to the primary's
// ack endpoint.
func (n *Node) setAckClient(c *rbio.Client) {
	n.mu.Lock()
	old := n.ack
	n.ack = c
	n.mu.Unlock()
	if old != nil {
		//socrates:ignore-err teardown of the superseded one-way ack channel; the replacement client carries all future acks
		old.Close()
	}
}

// setAckFloor fast-forwards the ack watermark to the cluster-durable
// prefix — the straggler-reconciliation step at promotion. Blocks below
// floor reached quorum cluster-wide; a secondary that missed some of them
// (it was outside the quorum) must not wedge its cumulative acks behind a
// gap the new primary no longer retains.
func (n *Node) setAckFloor(floor page.LSN) {
	n.mu.Lock()
	if floor.After(n.hardenedTo) {
		n.hardenedTo = floor
	}
	for start, end := range n.future {
		if !end.After(n.hardenedTo) {
			delete(n.future, start)
		}
	}
	// A stashed future block may now be contiguous with the new floor.
	for {
		end, ok := n.future[n.hardenedTo]
		if !ok {
			break
		}
		delete(n.future, n.hardenedTo)
		n.hardenedTo = end
	}
	n.mu.Unlock()
}

// enqueue schedules a hardened block for (async) apply.
func (n *Node) enqueue(b *wal.Block) {
	n.mu.Lock()
	n.queue = append(n.queue, b)
	n.cond.Broadcast()
	n.mu.Unlock()
}

// startApply runs the secondary apply loop.
func (n *Node) startApply() {
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		for {
			n.mu.Lock()
			for len(n.queue) == 0 {
				select {
				case <-n.done:
					n.mu.Unlock()
					return
				default:
				}
				waker := time.AfterFunc(time.Millisecond, n.cond.Broadcast)
				//socrates:wait-ok idle apply loop waiting for the next shipped block; not a stall
				n.cond.Wait()
				waker.Stop()
			}
			batch := n.queue
			n.queue = nil
			n.mu.Unlock()
			for _, b := range batch {
				n.applyBlock(b)
			}
		}
	}()
}

// applyBlock applies every record of the block to the local full copy. In
// HADR every node has every page, so nothing is ever skipped.
func (n *Node) applyBlock(b *wal.Block) {
	for _, rec := range b.Records {
		switch {
		case rec.Kind == wal.KindTxnCommit:
			ts := rec.CommitTS()
			n.mu.Lock()
			if ts > n.maxTS {
				n.maxTS = ts
			}
			eng := n.engine
			n.mu.Unlock()
			if eng != nil {
				eng.Clock().Publish(ts)
			}
		case rec.IsPageOp():
			pg, err := n.pages.Read(rec.Page)
			if errors.Is(err, fcb.ErrNotFound) {
				pg = page.New(rec.Page, rec.PageType)
			} else if err != nil {
				continue
			}
			if next, applied, err := btree.Apply(pg, rec); err == nil && applied {
				//socrates:ignore-err bufferedFile.Write is an in-memory install that cannot fail; disk write-back errors are retried by its flusher
				_ = n.pages.Write(next)
			}
		}
	}
	n.mu.Lock()
	if b.End.After(n.applied) {
		n.applied = b.End
	}
	n.cond.Broadcast()
	n.mu.Unlock()
}

// WaitApplied blocks until the node applied through lsn.
func (n *Node) WaitApplied(lsn page.LSN, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	// xlog.feed: the caller is blocked behind this replica's apply
	// progress. Recorded only when the loop actually blocks.
	region := n.waits.Begin(nil, obs.WaitXLOGFeed)
	waited := false
	defer func() { region.EndIf(waited) }()
	n.mu.Lock()
	defer n.mu.Unlock()
	for n.applied.Before(lsn) {
		if time.Now().After(deadline) {
			return false
		}
		waited = true
		waker := time.AfterFunc(time.Millisecond, n.cond.Broadcast)
		n.cond.Wait()
		waker.Stop()
	}
	return true
}

// waitApplyProgress blocks until the apply watermark advances or the
// timeout elapses — the WaitFresh hook for traversals racing log apply.
func (n *Node) waitApplyProgress(timeout time.Duration) {
	n.mu.Lock()
	start := n.applied
	deadline := time.Now().Add(timeout)
	for n.applied == start && time.Now().Before(deadline) {
		waker := time.AfterFunc(200*time.Microsecond, n.cond.Broadcast)
		//socrates:wait-ok reached only via the engine's WaitFresh hook, whose caller (withReadRetry) owns the lock.row accounting
		n.cond.Wait()
		waker.Stop()
	}
	n.mu.Unlock()
}

// handler serves replication traffic: a feed block is hardened to the local
// log, queued for apply, and acknowledged.
func (n *Node) handler() rbio.Handler {
	return func(_ context.Context, req *rbio.Request) *rbio.Response {
		switch req.Type {
		case rbio.MsgPing:
			return rbio.Ok()
		case rbio.MsgFeedBlock:
			b, _, err := wal.DecodeBlock(req.Payload)
			if err != nil {
				return rbio.Errorf("bad block: %v", err)
			}
			cum, err := n.hardenFeed(b)
			if err != nil {
				return rbio.Errorf("harden: %v", err)
			}
			// Push the cumulative watermark on the one-way ack channel (a
			// one-way ship gets no response frame) and mirror it in the
			// response for round-trip ships from older peers.
			n.reportHarden(cum)
			resp := rbio.Ok()
			resp.LSN = cum
			return resp
		case rbio.MsgReadState:
			resp := rbio.Ok()
			resp.LSN = n.AppliedLSN()
			return resp
		default:
			return rbio.Errorf("hadr: unsupported message %v", req.Type)
		}
	}
}

// stop halts the apply loop and the page flusher.
func (n *Node) stop() {
	select {
	case <-n.done:
		return
	default:
	}
	close(n.done)
	n.cond.Broadcast()
	n.wg.Wait()
	n.pages.close()
	n.mu.Lock()
	ack := n.ack
	n.ack = nil
	n.mu.Unlock()
	if ack != nil {
		//socrates:ignore-err node shutdown; acks are advisory progress reports and the primary tolerates a vanished secondary
		ack.Close()
	}
}

// DataBytes reports the bytes of the node's full local copy (after
// draining the write-back queue so the disk shadow is complete).
func (n *Node) DataBytes() int64 {
	//socrates:ignore-err this is a size probe; an incomplete drain undercounts the shadow but corrupts nothing
	_ = n.pages.FlushAll()
	return n.disk.Size()
}

// openSecondaryEngine attaches a read-only engine once the catalog exists.
func (n *Node) openSecondaryEngine() error {
	eng, err := engine.Open(engine.Config{
		Pages:    n.pages,
		ReadOnly: true,
		WaitFresh: func() {
			// A traversal raced log apply: wait for the apply loop to make
			// progress (signalled via n.cond), then retry.
			n.waitApplyProgress(2 * time.Millisecond)
		},
	})
	if err != nil {
		return err
	}
	n.mu.Lock()
	eng.Clock().Publish(n.maxTS)
	n.engine = eng
	n.mu.Unlock()
	return nil
}

var _ = fmt.Sprintf
