// Package hadr implements the pre-Socrates SQL DB architecture (§2,
// Figure 1): a log-replicated state machine of four nodes — one primary and
// three secondaries — each holding a full local copy of the database.
//
// It is the evaluation baseline for every comparison in the paper:
//
//   - commits harden by achieving quorum across the replica set (the
//     primary's local log write plus acknowledgements from secondaries),
//     paying a cross-availability-zone round trip (~3 ms, Table 1); they
//     go through the log writer Socrates' primary runs (logwriter), and
//     only its sink, the replicator, is HADR's own;
//   - the primary must also drive the log backup to XStore itself, every
//     "five minutes"; when the backup egress cannot keep up, log production
//     throttles — the bottleneck behind Table 5;
//   - every operational workflow is O(size-of-data): seeding a new replica
//     copies the whole database, and scale-up is a reseed (Table 1).
//
// One invariant carries the replication: a replica is a log prefix. Every
// node durably holds the blocks of [1, hardenedTo), applies them in LSN
// order (applied <= hardenedTo), and acknowledges exactly hardenedTo. A
// prefix moves in two ways only: the node received the blocks
// (Node.hardenFeed), or the node was seeded from a full copy of the database
// (Cluster.SeedNewReplica). A node that missed a block is fed it again from
// the primary's recent log, or leaves the replica set; it is never declared
// whole. Redo is idempotent only when records reach a page in log order
// (the page-LSN test drops an older record that arrives late), which is why
// order is part of the invariant and not an optimisation.
package hadr

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"socrates/internal/engine"
	"socrates/internal/logwriter"
	"socrates/internal/metrics"
	"socrates/internal/obs"
	"socrates/internal/page"
	"socrates/internal/rbio"
	"socrates/internal/recovery"
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

// ErrNoQuorum reports a group too few replicas could cover: a lost group.
var ErrNoQuorum = fmt.Errorf("hadr: replication quorum lost: %w", logwriter.ErrGroupLost)

var (
	noWaits  *obs.WaitRecorder // HADR's bounded waits record no wait class
	noLadder *obs.WatermarkSet // and its rungs are on no ladder
)

// replicas and quorum fix the replica set (§2): four nodes, the primary
// included, and a block commits once three of them, the primary's own copy
// among them, harden it.
const replicas, quorum = 4, 3

// Config describes an HADR deployment. Its size and commit quorum are the
// constants replicas (4) and quorum (3).
type Config struct {
	// Name prefixes node addresses and backup blobs.
	Name string
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
}

func (c *Config) applyDefaults() {
	if c.Name == "" {
		c.Name = "hadr"
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

	mu   sync.Mutex
	cond *sync.Cond

	// The prefix. [1, hardenedTo) is in the local log; only hardenFeed and
	// SeedNewReplica move it. future is the reorder buffer: blocks hardened
	// above the prefix (ships are pipelined and arrive in any order), keyed
	// by start LSN, released as the prefix reaches them. feeding marks
	// blocks being written to the local log right now, so a block delivered
	// twice is appended once.
	hardenedTo page.LSN
	future     map[page.LSN]heldBlock
	feeding    map[page.LSN]bool
	// tail is the node's recent log: the encoded blocks at the end of the
	// prefix, in order, at most tailMax of them. The primary feeds a
	// lagging secondary from it, and a promoted node brings its own.
	tail []tailBlock

	// primary marks the node whose engine writes the pages before the log
	// hardens: its blocks join the prefix and the tail but are not applied.
	primary bool
	queue   []*wal.Block   // released from the prefix in LSN order, not yet applied
	applied *obs.Watermark // standalone: HADR publishes no ladder; stop drops it
	maxTS   uint64         // highest applied commit timestamp
	engine  *engine.Engine // read-only while secondary; nil until first open

	done chan struct{}
	wg   sync.WaitGroup
}

// heldBlock is a block hardened above the prefix, waiting in Node.future.
type heldBlock struct {
	block   *wal.Block
	payload []byte
}

// tailBlock is one encoded block of a node's recent log.
type tailBlock struct {
	start   page.LSN
	payload []byte
}

// tailMax bounds a node's recent log. A secondary whose prefix ends before
// the primary's tail begins cannot be fed and leaves the replica set.
const tailMax = 512

var errTailGone = errors.New("hadr: prefix older than the primary's retained log")

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
		applied:    noLadder.Own(obs.WMSecondary, name),
		hardenedTo: 1,
		future:     make(map[page.LSN]heldBlock),
		feeding:    make(map[page.LSN]bool),
		done:       make(chan struct{}),
	}
	n.cond = sync.NewCond(&n.mu)
	n.applied.Publish(1)
	return n, nil
}

// AppliedLSN reports the node's apply watermark.
func (n *Node) AppliedLSN() page.LSN { return page.LSN(n.applied.Value()) }

// Engine returns the node's engine (read-only on secondaries).
func (n *Node) Engine() *engine.Engine { return n.engine }

// HardenedTo reports the end of the node's prefix: every block below it is
// in the local log. It is what the node acknowledges.
func (n *Node) HardenedTo() page.LSN {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.hardenedTo
}

// hardenFeed takes delivery of one block, payload being its encoding: a
// block the node already holds (below the prefix, in the reorder buffer, or
// being written) is dropped; a new one is written to the local log, then
// every block the prefix now reaches joins it in LSN order — onto the tail
// and, on a secondary, onto the apply queue. It returns the prefix, which is
// the acknowledgement: it covers every block below it. The primary hardens
// its own blocks here too; its prefix is its local durability.
func (n *Node) hardenFeed(b *wal.Block, payload []byte) (page.LSN, error) {
	n.mu.Lock()
	if _, held := n.future[b.Start]; held || n.feeding[b.Start] || !b.End.After(n.hardenedTo) {
		prefix := n.hardenedTo
		n.mu.Unlock()
		return prefix, nil
	}
	n.feeding[b.Start] = true
	off := n.logEnd
	n.logEnd += int64(len(payload))
	n.mu.Unlock()

	err := n.logDev.WriteAt(payload, off)

	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.feeding, b.Start)
	if err != nil {
		return n.hardenedTo, err
	}
	n.future[b.Start] = heldBlock{block: b, payload: payload}
	for {
		next, ok := n.future[n.hardenedTo]
		if !ok {
			break
		}
		delete(n.future, n.hardenedTo)
		n.hardenedTo = next.block.End
		n.tail = append(n.tail, tailBlock{start: next.block.Start, payload: next.payload})
		if len(n.tail) > tailMax {
			n.tail = n.tail[1:]
		}
		if !n.primary {
			n.queue = append(n.queue, next.block)
		}
	}
	n.cond.Broadcast()
	return n.hardenedTo, nil
}

// tailAt returns the encoded block of the node's prefix that starts at lsn:
// nil when lsn is the end of the prefix (nothing to feed), errTailGone when
// the block has left the tail.
func (n *Node) tailAt(lsn page.LSN) ([]byte, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !lsn.Before(n.hardenedTo) {
		return nil, nil
	}
	i := sort.Search(len(n.tail), func(i int) bool { return !n.tail[i].start.Before(lsn) })
	if i == len(n.tail) || n.tail[i].start != lsn {
		return nil, errTailGone
	}
	return n.tail[i].payload, nil
}

// newTerm prepares the node for a new writer. Blocks still in the reorder
// buffer came from the writer that is gone: those above the promoted prefix
// would pass for what the new writer cuts at the same LSNs, those below it
// come again from the promoted node's tail. Dropping them moves no prefix.
func (n *Node) newTerm(primary bool) {
	n.mu.Lock()
	clear(n.future)
	n.primary = primary
	n.mu.Unlock()
}

// startApply runs the secondary apply loop: the redo cursor under
// recovery.Replica, over blocks that leave the queue in LSN order.
func (n *Node) startApply() {
	redo := recovery.NewReplayer(recovery.Replica{Pages: n.pages}, 0, n.blockApplied)
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
				//socrates:wait-ok idle apply loop waiting for the next shipped block; not a stall
				n.cond.Wait()
			}
			batch := n.queue
			n.queue = nil
			n.mu.Unlock()
			for _, b := range batch {
				_ = redo.ApplyBlock(b, 0) // Replica drops what it cannot apply: no block fails
			}
		}
	}()
}

// blockApplied is the cursor's block hook: a block's commits are published
// before the watermark passes it, so WaitApplied's callers read them.
func (n *Node) blockApplied(b *wal.Block, done bool, visible uint64) {
	if !done {
		return
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.maxTS = max(n.maxTS, visible)
	if n.engine != nil {
		n.engine.Clock().Publish(visible)
	}
	n.applied.Publish(uint64(b.End)) // the queue is the prefix in LSN order
}

// WaitApplied blocks until the node applied the log below the end LSN lsn.
func (n *Node) WaitApplied(lsn page.LSN, timeout time.Duration) bool {
	// xlog.feed: the caller is blocked behind this replica's apply progress.
	return noWaits.AwaitLSN(nil, obs.WaitXLOGFeed, n.applied, uint64(lsn), time.Now().Add(timeout)) == nil
}

// handler serves replication traffic: a shipped block is hardened to the
// local log and answered with the node's prefix.
func (n *Node) handler() rbio.Handler {
	return func(_ context.Context, req *rbio.Request) *rbio.Response {
		if req.Type != rbio.MsgFeedBlock {
			return rbio.Errorf("hadr: unsupported message %v", req.Type)
		}
		b, size, err := wal.DecodeBlock(req.Payload)
		if err != nil {
			return rbio.Errorf("bad block: %v", err)
		}
		prefix, err := n.hardenFeed(b, req.Payload[:size])
		if err != nil {
			return rbio.Errorf("harden: %v", err)
		}
		resp := rbio.Ok()
		resp.LSN = prefix
		return resp
	}
}

// stop halts the apply loop and the page flusher.
func (n *Node) stop() {
	select {
	case <-n.done:
		return
	default:
	}
	// Close and wake under n.mu: the apply loop checks done and parks on
	// the cond under it, so the wake-up cannot fall between the two.
	n.mu.Lock()
	close(n.done)
	n.cond.Broadcast()
	n.mu.Unlock()
	n.applied.Drop()
	n.wg.Wait()
	n.pages.close()
}

// DataBytes reports the bytes of the node's full local copy (after
// draining the write-back queue so the disk shadow is complete).
func (n *Node) DataBytes() int64 {
	//socrates:ignore-err this is a size probe; an incomplete drain undercounts the shadow but corrupts nothing
	_ = n.pages.flushOnce()
	return n.disk.Size()
}

// openSecondaryEngine attaches a read-only engine once the catalog exists.
func (n *Node) openSecondaryEngine() error {
	eng, err := engine.Open(engine.Config{
		Pages:     n.pages,
		ReadOnly:  true,
		ApplyRung: n.applied,
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
