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
	"socrates/internal/logwriter"
	"socrates/internal/metrics"
	"socrates/internal/page"
	"socrates/internal/rbio"
	"socrates/internal/wal"
	"socrates/internal/xstore"
)

// Cluster is a running HADR deployment: one primary, N-1 secondaries.
type Cluster struct {
	cfg Config

	net          *rbio.Network
	store        *xstore.Store
	PrimaryMeter *metrics.CPUMeter

	mu          sync.Mutex
	primary     *node
	secondaries []*node
	writer      *logwriter.LogWriter
	repl        *replicator // the writer's sink
}

// New builds, bootstraps, and starts an HADR deployment.
func New(cfg Config) (*Cluster, error) {
	cfg.applyDefaults()
	c := &Cluster{cfg: cfg, net: cfg.net}
	if c.net == nil {
		c.net = rbio.NewNetworkWith(azLink)
	}
	c.store = cfg.Store
	if c.store == nil {
		c.store = xstore.New(xstore.Config{})
	}
	c.PrimaryMeter = metrics.NewCPUMeter(cfg.PrimaryCores)

	// Primary node plus secondaries, each a full replica.
	prim, err := newNode(cfg.Name+"-0", cfg.diskProfile, c.PrimaryMeter)
	if err != nil {
		return nil, err
	}
	prim.primary = true
	c.primary = prim
	for i := 1; i < replicas; i++ {
		sec, err := newNode(fmt.Sprintf("%s-%d", cfg.Name, i), cfg.diskProfile, nil)
		if err != nil {
			return nil, err
		}
		sec.startApply()
		c.net.Serve(sec.name, sec.handler())
		c.secondaries = append(c.secondaries, sec)
	}

	c.writer, c.repl = c.newLog(prim, c.secondaries)
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
func (c *Cluster) Primary() *node {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.primary
}

// Secondaries returns the current secondary nodes.
func (c *Cluster) Secondaries() []*node {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]*node(nil), c.secondaries...)
}

// Writer exposes the primary's log pipeline (throughput stats).
func (c *Cluster) Writer() *logwriter.LogWriter {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.writer
}

// Throttles counts the backup-lag stalls (§7.4) of the log in office.
func (c *Cluster) Throttles() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.repl.throttles.Load()
}

// Close stops every node.
func (c *Cluster) Close() {
	c.mu.Lock()
	w, r := c.writer, c.repl
	secs := append([]*node(nil), c.secondaries...)
	prim := c.primary
	c.mu.Unlock()
	if w != nil {
		closeLog(w, r)
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
	var gone *node
	kept := make([]*node, 0, len(c.secondaries))
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
		c.net.Unserve(name)
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
func (c *Cluster) Failover() (*node, time.Duration, error) {
	start := time.Now()
	c.mu.Lock()
	oldWriter, oldRepl := c.writer, c.repl
	old := c.primary
	candidates := len(c.secondaries)
	c.mu.Unlock()
	if candidates == 0 {
		return nil, 0, fmt.Errorf("hadr: no secondary to promote")
	}
	closeLog(oldWriter, oldRepl) // its last ships land, its last stragglers leave
	old.stop()
	hardened := oldWriter.HardenedEnd()

	// Elect by what is durable, not by what is applied: the promoted node's
	// prefix becomes the log. Every acknowledged commit lies below the old
	// writer's hardened end, so a prefix short of it would lose one.
	secs := c.Secondaries()
	var best *node
	var prefix page.LSN
	for _, s := range secs {
		if p := s.hardenedLSN(); p.After(prefix) {
			best, prefix = s, p
		}
	}
	if prefix.Before(hardened) {
		return nil, 0, fmt.Errorf("%w: no secondary holds the log through %d (longest prefix %d)",
			errNoQuorum, hardened, prefix)
	}
	rest := make([]*node, 0, len(secs)-1)
	for _, s := range secs {
		if s != best {
			rest = append(rest, s)
		}
	}

	// The promoted node drains its queue: everything below its prefix is
	// already there, in order.
	if !best.WaitApplied(prefix, 10*time.Second) {
		return nil, 0, fmt.Errorf("hadr: promoted node stuck at %d, need %d",
			best.appliedLSN(), prefix)
	}
	c.net.Unserve(best.name)
	best.newTerm(true)
	for _, s := range rest {
		s.newTerm(false)
	}

	// Construct the log (its sink spawns a backup loop that reaches the
	// store) before taking the lock: deadlocklint, and a failover that
	// cannot convoy behind a slow dial.
	w, r := c.newLog(best, rest)
	c.mu.Lock()
	c.primary = best
	c.secondaries = rest
	c.writer, c.repl = w, r
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
func (c *Cluster) SeedNewReplica(name string) (*node, int64, time.Duration, error) {
	start := time.Now()
	prim := c.Primary()
	sec, err := newNode(name, c.cfg.diskProfile, nil)
	if err != nil {
		return nil, 0, 0, err
	}

	// Read the primary's prefix before the copy: the engine writes a page
	// before its record hardens, so every page copied from here on reflects
	// at least the log below it, and replaying from it is idempotent.
	prefix := prim.hardenedLSN()
	var copied int64
	var copyErr error
	prim.pages.forEach(func(pg *page.Page) bool {
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
	sec.applied.Publish(uint64(prefix))
	sec.mu.Lock()
	sec.hardenedTo = prefix
	sec.mu.Unlock()
	sec.startApply()
	c.net.Serve(sec.name, sec.handler())
	if err := sec.openSecondaryEngine(); err != nil {
		return nil, 0, 0, err
	}
	if prim.engine != nil {
		sec.engine.Clock().Publish(prim.engine.Clock().Visible())
	}
	c.mu.Lock()
	c.secondaries = append(c.secondaries, sec)
	r := c.repl
	c.mu.Unlock()
	r.join(name, prefix)
	return sec, copied, time.Since(start), nil
}

// replicator is the HADR primary's log sink (§2): Reserve is the backup-lag
// throttle (§7.4) and the encode; Complete extends the primary node's prefix
// with the block, ships it to every secondary and returns the flexible
// quorum's watermark once it covers the block. The log writer above it is
// the one Socrates' primary runs.
type replicator struct {
	c    *Cluster
	node *node // the primary; its prefix is the log's local durability

	mu   sync.Mutex
	cond *sync.Cond
	// hardened is the quorum watermark: the highest LSN covered by the
	// primary's prefix and the prefixes of any quorum-1 secondaries — a
	// flexible quorum with no designated ack set.
	hardened page.LSN
	reserved page.LSN // the end of the last block Reserved
	closed   bool

	// Backup bookkeeping: unbackedLen bytes of log are not yet in XStore,
	// capped by BackupLagBudget; toBackup of them await the next backup run.
	unbackedLen int64
	toBackup    int64

	// peers is what the primary knows of each secondary.
	peers map[string]*peer

	ioWG      sync.WaitGroup // ships, feeds and the backup loop
	throttles atomic.Int64
}

// peer is one secondary as the primary sees it.
type peer struct {
	name string
	// client is one per secondary, kept for the peer's life: ships share
	// its in-flight cap instead of dialing one per shipped block.
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

// newLog continues the log at the end of node's prefix: the sink and the
// log writer over it. A secondary whose prefix is shorter starts out
// needing the difference from the tail.
func (c *Cluster) newLog(node *node, secs []*node) (*logwriter.LogWriter, *replicator) {
	start := node.hardenedLSN()
	r := &replicator{
		c:        c,
		node:     node,
		hardened: start,
		reserved: start,
		peers:    make(map[string]*peer),
	}
	for _, s := range secs {
		r.peers[s.name] = r.newPeer(s.name, s.hardenedLSN(), start)
	}
	r.cond = sync.NewCond(&r.mu)
	r.ioWG.Add(1)
	go r.backupLoop()
	return logwriter.New(r, start), r
}

// closeLog stops the log. The sink closes first, so a leader held in the
// backup throttle gives up its group and the writer's Close, which waits for
// its leaders, returns; then the sink's ships, feeds and backup loop end.
func closeLog(w *logwriter.LogWriter, r *replicator) {
	r.mu.Lock()
	r.closed = true
	r.cond.Broadcast()
	r.mu.Unlock()
	w.Close()
	r.ioWG.Wait()
	r.mu.Lock()
	for _, p := range r.peers {
		//socrates:ignore-err teardown of replication clients on log close; the clients own no durable state
		_ = p.client.Close()
	}
	r.mu.Unlock()
}

// join admits a freshly seeded secondary whose copy stands for the log below
// prefix. Blocks reserved before this moment may not be addressed to it; it
// gets them from the tail.
func (r *replicator) join(name string, prefix page.LSN) {
	p := r.newPeer(name, prefix, 0)
	r.mu.Lock()
	p.needTo = r.reserved
	r.peers[name] = p
	r.advanceLocked()
	r.mu.Unlock()
}

func (r *replicator) newPeer(name string, acked, needTo page.LSN) *peer {
	return &peer{name: name, client: rbio.NewClient(r.c.net.Dial(name)), acked: acked, needTo: needTo}
}

// ackLocked merges a secondary's reported prefix and re-derives the quorum
// watermark. Prefixes are monotone; a stale report is a no-op.
func (r *replicator) ackLocked(p *peer, prefix page.LSN) {
	if prefix.After(p.acked) {
		p.acked = prefix
		r.advanceLocked()
	}
}

// advanceLocked recomputes the quorum-hardened watermark: the highest LSN
// below the primary's prefix and the prefixes of any quorum-1 secondaries —
// a flexible quorum in the Taurus style, where any quorum-sized subset of
// replicas may harden a given block. Caller holds r.mu.
func (r *replicator) advanceLocked() {
	const need = quorum - 1 // the local copy counts toward quorum
	if len(r.peers) < need {
		return
	}
	acks := make([]page.LSN, 0, len(r.peers))
	for _, p := range r.peers {
		acks = append(acks, p.acked)
	}
	sort.Slice(acks, func(i, j int) bool { return acks[i].After(acks[j]) })
	cand := r.node.hardenedLSN()
	if acks[need-1].Before(cand) {
		cand = acks[need-1]
	}
	if cand.After(r.hardened) {
		r.hardened = cand
		r.cond.Broadcast()
	}
}

// Reserve throttles on backup lag and encodes the block. Log production is
// "restricted to the level at which the log backup egress can be safely
// handled" (§7.4): the leader waits, and every committer behind it, until
// the backup drains below the budget. A leader the log's close finds here
// gives up its group.
func (r *replicator) Reserve(b wal.Block) (logwriter.Reservation, error) {
	r.mu.Lock()
	if r.unbackedLen > r.c.cfg.BackupLagBudget && !r.closed {
		r.throttles.Add(1)
		for r.unbackedLen > r.c.cfg.BackupLagBudget && !r.closed {
			//socrates:wait-ok the backup-lag throttle, counted per episode in throttles; HADR records no wait classes
			r.cond.Wait()
		}
		if r.closed {
			r.mu.Unlock()
			return logwriter.Reservation{}, logwriter.ErrWriterClosed
		}
	}
	r.reserved = b.End
	r.mu.Unlock()
	return logwriter.Reservation{Payload: b.Encode()}, nil
}

// shipTimeout bounds one replication round trip to a secondary: an
// unreachable replica must not wedge a quorum round forever.
const shipTimeout = 10 * time.Second

// Complete extends the primary's prefix with the block, sends it to every
// secondary as a round trip whose response carries that secondary's prefix,
// and waits for the flexible quorum to cover it. Ships are pipelined, so a
// response usually acknowledges less than this block; the ships before it
// deliver the rest. A block the quorum cannot cover is lost (errNoQuorum)
// but stays in the primary's prefix, and hardens with a later block once
// enough replicas hold it.
func (r *replicator) Complete(b wal.Block, res logwriter.Reservation) (page.LSN, error) {
	payload := res.Payload
	if _, err := r.node.hardenFeed(&b, payload); err != nil {
		return 0, err
	}
	const need = quorum - 1 // the primary's prefix already holds it
	r.mu.Lock()
	defer r.mu.Unlock()
	r.advanceLocked()
	peers := make([]*peer, 0, len(r.peers))
	for _, p := range r.peers {
		peers = append(peers, p)
		p.out++
		r.ioWG.Add(1)
		go func() {
			defer r.ioWG.Done()
			r.shipTo(p, b.End, payload)
		}()
	}

	// Every ship ends in an acknowledgement or in a hole recorded on its
	// peer, and both wake this loop.
	for r.hardened.Before(b.End) {
		able := 0
		for _, p := range peers {
			if !p.stalled(b.End) {
				able++
			}
		}
		if able < need {
			return 0, fmt.Errorf("%w: %d of %d secondaries can cover block %d", errNoQuorum, able, len(peers), b.Start)
		}
		//socrates:wait-ok the quorum round is the sink's Complete, which the log writer times for its batching window; HADR records no wait classes
		r.cond.Wait()
	}
	r.unbackedLen += int64(len(payload))
	r.toBackup += int64(len(payload))
	return r.hardened, nil
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
// tail — from the log in office or from the one a Failover installed.
func (r *replicator) shipTo(p *peer, end page.LSN, payload []byte) {
	prefix, err := p.call(payload)
	r.mu.Lock()
	p.out--
	behind := false
	if err != nil {
		p.needTo = page.MaxLSN(p.needTo, end)
	} else {
		r.ackLocked(p, prefix)
		behind = p.acked.Before(p.needTo) && !p.catching && r.peers[p.name] == p
		if behind {
			p.catching = true // one feed per secondary at a time
		}
	}
	r.cond.Broadcast() // the ships waiting on this one look again
	r.mu.Unlock()
	if behind {
		r.feed(p)
	}
}

// feed sends a secondary the blocks of the primary's prefix it lacks, from
// the primary node's tail, in order, one round trip each, until it holds the
// prefix or stops answering. It is the only way a secondary that missed a
// ship gets it. A secondary whose prefix ends before the tail begins cannot
// be fed and leaves the replica set. The caller has set p.catching.
func (r *replicator) feed(p *peer) {
	r.mu.Lock()
	from := p.acked
	r.mu.Unlock()
	var err error
	for {
		var payload []byte
		if payload, err = r.node.tailAt(from); err != nil || payload == nil {
			break // the tail no longer reaches it, or it holds the prefix
		}
		var prefix page.LSN
		if prefix, err = p.call(payload); err != nil || !prefix.After(from) {
			break // it stopped answering, or its own ship is writing that block there and will report it
		}
		from = prefix
		r.mu.Lock()
		r.ackLocked(p, prefix)
		r.mu.Unlock()
	}

	gone := errors.Is(err, errTailGone)
	if gone {
		r.c.evict(p.name) // before the ships waiting on it learn of it
	}
	r.mu.Lock()
	p.catching = false
	if gone {
		delete(r.peers, p.name)
		//socrates:ignore-err the secondary has left the replica set; its client owns no durable state
		_ = p.client.Close()
	}
	r.cond.Broadcast()
	r.mu.Unlock()
}

// backupLoop ships the un-backed-up log range to XStore on a cadence. Its
// egress is capped by the store's ingest limit; a slow backup stalls log
// production via the lag budget.
func (r *replicator) backupLoop() {
	defer r.ioWG.Done()
	ticker := time.NewTicker(r.c.cfg.LogBackupEvery)
	defer ticker.Stop()
	for {
		r.mu.Lock()
		closed := r.closed
		r.mu.Unlock()
		if closed {
			r.backupOnce() // final drain
			return
		}
		//socrates:wait-ok log-backup cadence tick, not a stall
		<-ticker.C
		r.backupOnce()
	}
}

func (r *replicator) backupOnce() {
	r.mu.Lock()
	total := r.toBackup
	r.toBackup = 0
	r.mu.Unlock()
	if total == 0 {
		return
	}

	// The backup payload is a synthetic run of the same size as the log
	// range: what matters is the egress it consumes at XStore.
	err := r.c.store.Append(r.c.cfg.Name+"/logbackup", make([]byte, total))
	r.mu.Lock()
	if err != nil {
		// XStore unavailable: the bytes wait for the next run and the lag
		// budget keeps throttling.
		r.toBackup += total
	} else {
		r.unbackedLen -= total
		r.cond.Broadcast()
	}
	r.mu.Unlock()
}
