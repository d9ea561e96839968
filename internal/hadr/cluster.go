package hadr

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"socrates/internal/engine"
	"socrates/internal/metrics"
	"socrates/internal/netmux"
	"socrates/internal/obs"
	"socrates/internal/page"
	"socrates/internal/rbio"
	"socrates/internal/wal"
	"socrates/internal/xstore"
)

// Cluster is a running HADR deployment: one primary, N-1 secondaries.
type Cluster struct {
	cfg Config

	Net          *rbio.Network
	Store        *xstore.Store
	PrimaryMeter *metrics.CPUMeter

	mu          sync.Mutex
	primary     *Node
	secondaries []*Node
	writer      *writer
}

// New builds, bootstraps, and starts an HADR deployment.
func New(cfg Config) (*Cluster, error) {
	cfg.applyDefaults()
	c := &Cluster{cfg: cfg, Net: cfg.Net}
	if c.Net == nil {
		c.Net = rbio.NewNetworkWith(AZLink)
	}
	c.Store = cfg.Store
	if c.Store == nil {
		c.Store = xstore.New(xstore.Config{})
	}
	c.PrimaryMeter = metrics.NewCPUMeter(cfg.PrimaryCores)

	// Primary node plus secondaries, each a full replica.
	prim, err := newNode(cfg.Name+"-0", cfg.DiskProfile, c.PrimaryMeter)
	if err != nil {
		return nil, err
	}
	prim.waits = cfg.Waits
	prim.primary = true
	c.primary = prim
	for i := 1; i < cfg.Replicas; i++ {
		sec, err := newNode(fmt.Sprintf("%s-%d", cfg.Name, i), cfg.DiskProfile, nil)
		if err != nil {
			return nil, err
		}
		sec.waits = cfg.Waits
		sec.startApply()
		c.Net.Serve(sec.name, sec.handler())
		c.secondaries = append(c.secondaries, sec)
	}

	c.writer = newWriter(c, prim, c.secondaries)
	eng, err := engine.Create(engine.Config{
		Pages: c.primary.pages,
		Log:   c.writer,
		Meter: c.PrimaryMeter,
	})
	if err != nil {
		return nil, err
	}
	c.primary.engine = eng

	// Secondaries attach read-only engines once the catalog replicates.
	end := c.writer.HardenedEnd()
	for _, sec := range c.secondaries {
		if !sec.WaitApplied(end, 5*time.Second) {
			return nil, fmt.Errorf("hadr: %s never caught up during bootstrap", sec.name)
		}
		if err := sec.openSecondaryEngine(); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// Primary returns the current primary node.
func (c *Cluster) Primary() *Node {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.primary
}

// Secondaries returns the current secondary nodes.
func (c *Cluster) Secondaries() []*Node {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]*Node(nil), c.secondaries...)
}

// Writer exposes the primary's log pipeline (throughput stats).
func (c *Cluster) Writer() *writer {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.writer
}

// Close stops every node.
func (c *Cluster) Close() {
	c.mu.Lock()
	w := c.writer
	secs := append([]*Node(nil), c.secondaries...)
	prim := c.primary
	c.mu.Unlock()
	if w != nil {
		w.Close()
	}
	for _, s := range secs {
		s.stop()
	}
	if prim != nil {
		prim.stop()
	}
}

// TotalDataBytes reports the bytes stored across all replicas — the "4x
// copies" storage impact of Table 1.
func (c *Cluster) TotalDataBytes() int64 {
	var total int64
	total += c.Primary().DataBytes()
	for _, s := range c.Secondaries() {
		total += s.DataBytes()
	}
	return total
}

// evict removes a secondary from the replica set: its prefix ends before
// the primary's retained log begins, so no block the primary can send
// extends it. Restoring the replica count is SeedNewReplica's full copy.
func (c *Cluster) evict(name string) {
	c.mu.Lock()
	var gone *Node
	kept := make([]*Node, 0, len(c.secondaries))
	for _, s := range c.secondaries {
		if s.name == name {
			gone = s
			continue
		}
		kept = append(kept, s)
	}
	c.secondaries = kept
	c.mu.Unlock()
	if gone != nil {
		c.Net.Unserve(name)
		gone.stop()
	}
}

// Failover promotes the secondary that holds the longest log prefix.
// Recovery time includes draining its apply queue; because each node already
// has a full copy, no pages move — but a *replacement* replica to restore
// fault tolerance costs O(size-of-data) (SeedNewReplica). The new writer
// continues the log at the promoted node's prefix; a remaining secondary
// that holds less is fed the rest from the promoted node's tail when it
// answers its first ship, or leaves the replica set if the tail is too short.
func (c *Cluster) Failover() (*Node, time.Duration, error) {
	start := time.Now()
	c.mu.Lock()
	oldWriter := c.writer
	old := c.primary
	candidates := len(c.secondaries)
	c.mu.Unlock()
	if candidates == 0 {
		return nil, 0, fmt.Errorf("hadr: no secondary to promote")
	}
	oldWriter.Close() // its last ships land, its last stragglers leave
	old.stop()
	hardened := oldWriter.HardenedEnd()

	// Elect by what is durable, not by what is applied: the promoted node's
	// prefix becomes the log. Every acknowledged commit lies below the old
	// writer's hardened end, so a prefix short of it would lose one.
	secs := c.Secondaries()
	var best *Node
	var prefix page.LSN
	for _, s := range secs {
		if p := s.HardenedTo(); p.After(prefix) {
			best, prefix = s, p
		}
	}
	if prefix.Before(hardened) {
		return nil, 0, fmt.Errorf("%w: no secondary holds the log through %d (longest prefix %d)",
			ErrNoQuorum, hardened, prefix)
	}
	rest := make([]*Node, 0, len(secs)-1)
	for _, s := range secs {
		if s != best {
			rest = append(rest, s)
		}
	}

	// The promoted node drains its queue: everything below its prefix is
	// already there, in order.
	if !best.WaitApplied(prefix, 10*time.Second) {
		return nil, 0, fmt.Errorf("hadr: promoted node stuck at %d, need %d",
			best.AppliedLSN(), prefix)
	}
	c.Net.Unserve(best.name)
	best.newTerm(true)
	for _, s := range rest {
		s.newTerm(false)
	}

	// Construct the writer (it spawns flush/backup loops that reach the
	// fabric) before taking the lock: deadlocklint, and a failover that
	// cannot convoy behind a slow dial.
	w := newWriter(c, best, rest)
	c.mu.Lock()
	c.primary = best
	c.secondaries = rest
	c.writer = w
	c.mu.Unlock()

	visible := uint64(0)
	if best.engine != nil {
		visible = best.engine.Clock().Visible()
	}
	eng, err := engine.Open(engine.Config{
		Pages: best.pages,
		Log:   w,
		Meter: c.PrimaryMeter,
	})
	if err != nil {
		return nil, 0, err
	}
	eng.Clock().Publish(visible)
	best.engine = eng
	return best, time.Since(start), nil
}

// SeedNewReplica adds a secondary by copying the full database from the
// primary — the O(size-of-data) operation Socrates eliminates (§4.1.2).
// It returns the new node, the bytes copied, and the elapsed time.
func (c *Cluster) SeedNewReplica(name string) (*Node, int64, time.Duration, error) {
	start := time.Now()
	prim := c.Primary()
	sec, err := newNode(name, c.cfg.DiskProfile, nil)
	if err != nil {
		return nil, 0, 0, err
	}

	// Read the primary's prefix before the copy: the engine writes a page
	// before its record hardens, so every page copied from here on reflects
	// at least the log below it, and replaying from it is idempotent.
	prefix := prim.HardenedTo()
	var copied int64
	var copyErr error
	prim.pages.Range(func(pg *page.Page) bool {
		if err := sec.pages.Write(pg); err != nil {
			copyErr = err
			return false
		}
		copied += page.Size
		return true
	})
	if copyErr != nil {
		return nil, 0, 0, copyErr
	}
	// The one place a prefix moves without its blocks: the copy stands for
	// the log below it. The node holds none of that log, so its own tail
	// starts here.
	sec.mu.Lock()
	sec.applied = prefix
	sec.hardenedTo = prefix
	sec.mu.Unlock()
	sec.startApply()
	c.Net.Serve(sec.name, sec.handler())
	if err := sec.openSecondaryEngine(); err != nil {
		return nil, 0, 0, err
	}
	if prim.engine != nil {
		sec.engine.Clock().Publish(prim.engine.Clock().Visible())
	}
	c.mu.Lock()
	c.secondaries = append(c.secondaries, sec)
	w := c.writer
	c.mu.Unlock()
	w.join(name, prefix)
	return sec, copied, time.Since(start), nil
}

// writer is the HADR primary's log pipeline: it cuts the log into blocks,
// extends the primary node's prefix with each, ships it to every secondary,
// and reports a commit hardened once a quorum of prefixes covers it. It
// throttles on backup lag.
type writer struct {
	c    *Cluster
	node *Node // the primary; its prefix is the writer's local durability

	mu       sync.Mutex
	cond     *sync.Cond
	pending  []*wal.Record
	boundary int
	nextLSN  page.LSN
	hardened page.LSN
	// lostTo is the end of the highest block whose quorum round failed. Its
	// committers are told ErrNoQuorum; the block stays in the primary's
	// prefix and hardens with a later one if the replicas come back.
	lostTo page.LSN
	err    error
	closed bool

	// Backup bookkeeping: unbackedLen bytes of log are not yet in XStore,
	// capped by BackupLagBudget; toBackup of them await the next backup run.
	unbackedLen int64
	toBackup    int64

	// peers is what the writer knows of each secondary. The hardened
	// watermark is the highest LSN covered by the primary's prefix and the
	// prefixes of any Quorum-1 secondaries — a flexible quorum with no
	// designated ack set.
	peers map[string]*peer

	wg            sync.WaitGroup
	ioWG          sync.WaitGroup
	inflight      chan struct{}
	bytesFlushed  atomic.Int64
	blocksFlushed atomic.Int64
	throttles     atomic.Int64
}

// peer is one secondary as the writer sees it.
type peer struct {
	name string
	// client is netmux-pooled: replication reuses warm multiplexed
	// connections instead of dialing one per shipped block.
	client *rbio.Client
	acked  page.LSN // its prefix, as its last response reported it
	// needTo is the end of the highest block that did not reach it with its
	// own ship. While acked is below it the secondary has a hole that only
	// the primary's tail can fill (feed); above it, ships alone suffice.
	needTo   page.LSN
	catching bool // a feed is running
	out      int  // ships to it not yet answered or failed
}

// stalled reports whether the secondary cannot come to cover end by itself:
// it has a hole below, nobody is filling it, and no ship is out whose answer
// would start that.
func (p *peer) stalled(end page.LSN) bool {
	return p.acked.Before(end) && p.acked.Before(p.needTo) && !p.catching && p.out == 0
}

// newWriter continues the log at the end of node's prefix. A secondary
// whose prefix is shorter starts out needing the difference from the tail.
func newWriter(c *Cluster, node *Node, secs []*Node) *writer {
	start := node.HardenedTo()
	w := &writer{
		c:        c,
		node:     node,
		nextLSN:  start,
		hardened: start,
		peers:    make(map[string]*peer),
		inflight: make(chan struct{}, 8),
	}
	for _, s := range secs {
		w.peers[s.name] = w.newPeer(s.name, s.HardenedTo(), start)
	}
	w.cond = sync.NewCond(&w.mu)
	w.wg.Add(2)
	go w.flushLoop()
	go w.backupLoop()
	return w
}

// join admits a freshly seeded secondary whose copy stands for the log below
// prefix. Blocks cut before this moment were not addressed to it; it gets
// them from the tail.
func (w *writer) join(name string, prefix page.LSN) {
	p := w.newPeer(name, prefix, 0)
	w.mu.Lock()
	p.needTo = w.nextLSN
	w.peers[name] = p
	w.advanceLocked()
	w.mu.Unlock()
}

func (w *writer) newPeer(name string, acked, needTo page.LSN) *peer {
	pool := netmux.NewPool(name,
		func(a string) (rbio.Conn, error) { return w.c.Net.Dial(a), nil },
		netmux.Options{})
	return &peer{name: name, client: rbio.NewClient(pool), acked: acked, needTo: needTo}
}

// ackLocked merges a secondary's reported prefix and re-derives the quorum
// watermark. Prefixes are monotone; a stale report is a no-op.
func (w *writer) ackLocked(p *peer, prefix page.LSN) {
	if prefix.After(p.acked) {
		p.acked = prefix
		w.advanceLocked()
	}
}

// advanceLocked recomputes the quorum-hardened watermark: the highest LSN
// below the primary's prefix and the prefixes of any Quorum-1 secondaries —
// a flexible quorum in the Taurus style, where any quorum-sized subset of
// replicas may harden a given block. Caller holds w.mu.
func (w *writer) advanceLocked() {
	need := w.c.cfg.Quorum - 1 // the local copy counts toward quorum
	cand := w.node.HardenedTo()
	if need > 0 {
		if len(w.peers) < need {
			return
		}
		acks := make([]page.LSN, 0, len(w.peers))
		for _, p := range w.peers {
			acks = append(acks, p.acked)
		}
		sort.Slice(acks, func(i, j int) bool { return acks[i].After(acks[j]) })
		if acks[need-1].Before(cand) {
			cand = acks[need-1]
		}
	}
	if cand.After(w.hardened) {
		w.hardened = cand
		w.cond.Broadcast()
	}
}

// Append stages a record (engine.LogPipeline).
func (w *writer) Append(rec *wal.Record) page.LSN {
	w.mu.Lock()
	rec.LSN = w.nextLSN
	w.nextLSN = w.nextLSN.Next()
	w.pending = append(w.pending, rec)
	switch rec.Kind {
	case wal.KindTxnCommit, wal.KindTxnAbort, wal.KindCheckpoint, wal.KindNoop:
		w.boundary = len(w.pending)
		w.cond.Broadcast()
	}
	lsn := rec.LSN
	w.mu.Unlock()
	return lsn
}

// WaitHarden blocks until quorum hardening reaches lsn or ctx is done.
func (w *writer) WaitHarden(ctx context.Context, lsn page.LSN) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	// commit.harden: the committer is blocked on quorum replication of its
	// LSN. Recorded only when it actually blocks.
	if err := w.c.cfg.Waits.CondWait(ctx, obs.WaitCommitHarden, w.cond, time.Time{}, func() bool {
		return w.hardened.After(lsn) || lsn.Before(w.lostTo) || w.err != nil || w.closed
	}); err != nil {
		return err
	}
	if w.err != nil {
		return w.err
	}
	if w.hardened.AtMost(lsn) {
		return ErrNoQuorum
	}
	return nil
}

// HardenedEnd reports the quorum-hardened watermark.
func (w *writer) HardenedEnd() page.LSN {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.hardened
}

// Stats reports blocks and bytes shipped, plus backup throttle events.
func (w *writer) Stats() (blocks, bytes, throttles int64) {
	return w.blocksFlushed.Load(), w.bytesFlushed.Load(), w.throttles.Load()
}

// Close stops the pipeline.
func (w *writer) Close() {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return
	}
	w.closed = true
	w.cond.Broadcast()
	w.mu.Unlock()
	w.wg.Wait()
	w.ioWG.Wait() // drain in-flight quorum rounds and the ships still out
	w.mu.Lock()
	for _, p := range w.peers {
		//socrates:ignore-err teardown of replication clients on writer close; the pools own no durable state
		_ = p.client.Close()
	}
	w.mu.Unlock()
}

// shipTimeout bounds one replication round trip to a secondary: an
// unreachable replica must not wedge a quorum round forever.
const shipTimeout = 10 * time.Second

func (w *writer) flushLoop() {
	defer w.wg.Done()
	for {
		w.mu.Lock()
		for w.boundary == 0 && !w.closed && w.err == nil {
			//socrates:wait-ok idle flusher waiting for a commit boundary; not a stall
			w.cond.Wait()
		}
		if w.err != nil || (w.closed && w.boundary == 0) {
			w.mu.Unlock()
			return
		}
		// Backup-lag throttle: log production is "restricted to the level
		// at which the log backup egress can be safely handled" (§7.4).
		// backpressure: this stall serializes the whole log pipeline, so
		// the blocked time is charged as one running total per episode.
		if w.unbackedLen > w.c.cfg.BackupLagBudget && !w.closed {
			w.throttles.Add(1)
			stallStart := time.Now()
			for w.unbackedLen > w.c.cfg.BackupLagBudget && !w.closed {
				//socrates:wait-ok charged below as backpressure via a running total per throttle episode
				w.cond.Wait()
			}
			w.c.cfg.Waits.Observe(nil, obs.WaitBackpressure, time.Since(stallStart))
		}
		if w.closed && w.boundary == 0 {
			w.mu.Unlock()
			return
		}
		recs := append([]*wal.Record(nil), w.pending[:w.boundary]...)
		w.pending = w.pending[w.boundary:]
		w.boundary = 0
		w.mu.Unlock()

		block := &wal.Block{
			Start:   recs[0].LSN,
			End:     recs[len(recs)-1].LSN.Next(),
			Records: recs,
		}
		// Pipelined shipping: several quorum rounds in flight, hardened
		// watermark advanced as a prefix (same discipline as the Socrates
		// landing zone).
		w.inflight <- struct{}{}
		w.ioWG.Add(1)
		go func(block *wal.Block) {
			defer w.ioWG.Done()
			defer func() { <-w.inflight }()
			size, err := w.ship(block)
			if err != nil {
				w.mu.Lock()
				if errors.Is(err, ErrNoQuorum) {
					w.lostTo = page.MaxLSN(w.lostTo, block.End)
				} else if w.err == nil {
					w.err = err
				}
				w.cond.Broadcast()
				w.mu.Unlock()
				return
			}
			w.blocksFlushed.Add(1)
			w.bytesFlushed.Add(size)

			w.mu.Lock()
			w.unbackedLen += size
			w.toBackup += size
			w.cond.Broadcast()
			w.mu.Unlock()
		}(block)
	}
}

// ship extends the primary's prefix with the block, sends it to every
// secondary as a round trip whose response carries that secondary's prefix,
// and waits for the flexible quorum to cover it. Ships are pipelined, so a
// response usually acknowledges less than this block; the ships before it
// deliver the rest. It returns the block's encoded size.
func (w *writer) ship(block *wal.Block) (int64, error) {
	payload := block.Encode()
	if _, err := w.node.hardenFeed(block, payload); err != nil {
		return 0, err
	}
	need := w.c.cfg.Quorum - 1 // the primary's prefix already holds it
	w.mu.Lock()
	defer w.mu.Unlock()
	w.advanceLocked()
	qstart := time.Now()
	peers := make([]*peer, 0, len(w.peers))
	for _, p := range w.peers {
		peers = append(peers, p)
		p.out++
		w.ioWG.Add(1)
		go func() {
			defer w.ioWG.Done()
			w.shipTo(p, block.End, payload)
		}()
	}

	// commit.quorum: every ship ends in an acknowledgement or in a hole
	// recorded on its peer, and both wake this loop.
	for w.hardened.Before(block.End) && w.err == nil {
		able := 0
		for _, p := range peers {
			if !p.stalled(block.End) {
				able++
			}
		}
		if able < need {
			return 0, fmt.Errorf("%w: %d of %d secondaries can cover block %d", ErrNoQuorum, able, len(peers), block.Start)
		}
		//socrates:wait-ok charged as commit.quorum via the qstart running total once the flexible quorum acks
		w.cond.Wait()
	}
	if w.hardened.Before(block.End) {
		return 0, w.err
	}
	w.c.cfg.Waits.Observe(nil, obs.WaitCommitQuorum, time.Since(qstart))
	return int64(len(payload)), nil
}

// call delivers one encoded block to a secondary and returns its prefix.
func (p *peer) call(payload []byte) (page.LSN, error) {
	ctx, cancel := context.WithTimeout(context.Background(), shipTimeout)
	defer cancel()
	resp, err := p.client.Call(ctx, &rbio.Request{Type: rbio.MsgFeedBlock, Payload: payload})
	if err == nil {
		err = resp.Err()
	}
	if err != nil {
		return 0, err
	}
	return resp.LSN, nil
}

// shipTo sends the block ending at end to one secondary. A failed ship
// leaves a hole there; the first ship it answers after that feeds it the
// tail — from the writer in office or from the one a Failover installed.
func (w *writer) shipTo(p *peer, end page.LSN, payload []byte) {
	prefix, err := p.call(payload)
	w.mu.Lock()
	p.out--
	behind := false
	if err != nil {
		p.needTo = page.MaxLSN(p.needTo, end)
	} else {
		w.ackLocked(p, prefix)
		behind = p.acked.Before(p.needTo) && !p.catching && w.peers[p.name] == p
		if behind {
			p.catching = true // one feed per secondary at a time
		}
	}
	w.cond.Broadcast() // the ships waiting on this one look again
	w.mu.Unlock()
	if behind {
		w.feed(p)
	}
}

// feed sends a secondary the blocks of the primary's prefix it lacks, from
// the primary node's tail, in order, one round trip each, until it holds the
// prefix or stops answering. It is the only way a secondary that missed a
// ship gets it. A secondary whose prefix ends before the tail begins cannot
// be fed and leaves the replica set. The caller has set p.catching.
func (w *writer) feed(p *peer) {
	w.mu.Lock()
	from := p.acked
	w.mu.Unlock()
	var err error
	for {
		var payload []byte
		if payload, err = w.node.tailAt(from); err != nil || payload == nil {
			break // the tail no longer reaches it, or it holds the prefix
		}
		var prefix page.LSN
		if prefix, err = p.call(payload); err != nil || !prefix.After(from) {
			break // it stopped answering, or its own ship is writing that block there and will report it
		}
		from = prefix
		w.mu.Lock()
		w.ackLocked(p, prefix)
		w.mu.Unlock()
	}

	gone := errors.Is(err, errTailGone)
	if gone {
		w.c.evict(p.name) // before the ships waiting on it learn of it
	}
	w.mu.Lock()
	p.catching = false
	if gone {
		delete(w.peers, p.name)
		//socrates:ignore-err the secondary has left the replica set; its pool owns no durable state
		_ = p.client.Close()
	}
	w.cond.Broadcast()
	w.mu.Unlock()
}

// backupLoop ships the un-backed-up log range to XStore on a cadence. Its
// egress is capped by the store's ingest limit; a slow backup stalls log
// production via the lag budget.
func (w *writer) backupLoop() {
	defer w.wg.Done()
	ticker := time.NewTicker(w.c.cfg.LogBackupEvery)
	defer ticker.Stop()
	for {
		w.mu.Lock()
		closed := w.closed
		w.mu.Unlock()
		if closed {
			w.backupOnce() // final drain
			return
		}
		//socrates:wait-ok log-backup cadence tick, not a stall
		<-ticker.C
		w.backupOnce()
	}
}

func (w *writer) backupOnce() {
	w.mu.Lock()
	total := w.toBackup
	w.toBackup = 0
	w.mu.Unlock()
	if total == 0 {
		return
	}

	// The backup payload is a synthetic run of the same size as the log
	// range: what matters is the egress it consumes at XStore.
	err := w.c.Store.Append(w.c.cfg.Name+"/logbackup", make([]byte, total))
	w.mu.Lock()
	if err != nil {
		// XStore unavailable: the bytes wait for the next run and the lag
		// budget keeps throttling.
		w.toBackup += total
	} else {
		w.unbackedLen -= total
		w.cond.Broadcast()
	}
	w.mu.Unlock()
}

var _ engine.LogPipeline = (*writer)(nil)
