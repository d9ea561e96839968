package hadr

import (
	"context"
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
	"socrates/internal/socerr"
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

	c.writer = newWriter(c, 1)
	for _, sec := range c.secondaries {
		sec.setAckClient(rbio.NewClient(c.Net.Dial(c.writer.ackAddr())))
	}
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

// Failover promotes the most caught-up secondary to primary. Recovery time
// includes draining its apply queue; because each node already has a full
// copy, no pages move — but a *replacement* replica to restore fault
// tolerance costs O(size-of-data) (SeedNewReplica).
func (c *Cluster) Failover() (*Node, time.Duration, error) {
	start := time.Now()
	c.mu.Lock()
	oldWriter := c.writer
	old := c.primary
	if len(c.secondaries) == 0 {
		c.mu.Unlock()
		return nil, 0, fmt.Errorf("hadr: no secondary to promote")
	}
	// Most caught-up secondary wins.
	best := c.secondaries[0]
	for _, s := range c.secondaries[1:] {
		if s.AppliedLSN().After(best.AppliedLSN()) {
			best = s
		}
	}
	rest := make([]*Node, 0, len(c.secondaries)-1)
	for _, s := range c.secondaries {
		if s != best {
			rest = append(rest, s)
		}
	}
	c.mu.Unlock()

	oldWriter.Close()
	old.stop()
	hardened := oldWriter.HardenedEnd()

	// The promoted node drains its queue to the hardened end.
	if !best.WaitApplied(hardened, 10*time.Second) {
		return nil, 0, fmt.Errorf("hadr: promoted node stuck at %d, need %d",
			best.AppliedLSN(), hardened)
	}
	c.Net.Unserve(best.name)

	// Construct the writer (it spawns flush/backup loops that reach the
	// fabric) before taking the lock: deadlocklint, and a failover that
	// cannot convoy behind a slow dial.
	w := newWriter(c, hardened)
	c.mu.Lock()
	c.primary = best
	c.secondaries = rest
	c.writer = w
	c.mu.Unlock()

	// Straggler reconciliation at promotion: blocks below the hardened
	// watermark reached quorum cluster-wide, but a secondary outside that
	// quorum may have gaps. Fast-forward its cumulative ack floor so its
	// acks re-enter the flexible quorum instead of wedging behind a gap
	// the new primary no longer retains, and point its ack channel at the
	// new writer's endpoint.
	best.setAckClient(nil)
	for _, s := range rest {
		s.setAckClient(rbio.NewClient(c.Net.Dial(w.ackAddr())))
		s.setAckFloor(hardened)
	}

	visible := uint64(0)
	if best.engine != nil {
		visible = best.engine.Clock().Visible()
	}
	eng, err := engine.Open(engine.Config{
		Pages: best.pages,
		Log:   c.writer,
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
	// Read the hardened end before taking the node lock: Writer() takes
	// Cluster.mu, and Failover acquires Node.mu while holding Cluster.mu —
	// nesting them here in the opposite order is a lock-order cycle.
	w := c.Writer()
	hardened := w.HardenedEnd()
	sec.mu.Lock()
	sec.applied = hardened
	sec.hardenedTo = hardened // the seed copy covers everything below
	sec.mu.Unlock()
	sec.startApply()
	c.Net.Serve(sec.name, sec.handler())
	sec.setAckClient(rbio.NewClient(c.Net.Dial(w.ackAddr())))
	if err := sec.openSecondaryEngine(); err != nil {
		return nil, 0, 0, err
	}
	if prim.engine != nil {
		sec.engine.Clock().Publish(prim.engine.Clock().Visible())
	}
	c.mu.Lock()
	c.secondaries = append(c.secondaries, sec)
	c.mu.Unlock()
	return sec, copied, time.Since(start), nil
}

// Range exposes the primary page file's Range for seeding (test support).
func (n *Node) Range(fn func(*page.Page) bool) { n.pages.Range(fn) }

// writer is the HADR primary's log pipeline: local log write plus quorum
// log shipping, with backup-lag throttling.
type writer struct {
	c *Cluster

	mu       sync.Mutex
	cond     *sync.Cond
	pending  []*wal.Record
	boundary int
	nextLSN  page.LSN
	hardened page.LSN
	err      error
	closed   bool

	// Backup bookkeeping: [backedUp, hardened) is not yet in XStore; its
	// size is capped by BackupLagBudget.
	backedUp    page.LSN
	unbackedLen int64
	blockSizes  map[page.LSN]int64 // start LSN → encoded size (until backup)
	blockOrder  []page.LSN

	// completed tracks out-of-order local harden completions so
	// localDurable stays a prefix (ships are pipelined); the quorum
	// watermark can never pass local durability.
	completed    map[page.LSN]page.LSN
	localDurable page.LSN

	// secAcks holds each secondary's cumulative harden-ack watermark, fed
	// by one-way MsgHardenReport frames on the writer's ack endpoint (or
	// by the response of a round-trip ship or retransmit). The hardened
	// watermark is the highest LSN covered by local durability plus any
	// Quorum-1 of these — a flexible quorum with no designated ack set.
	secAcks map[string]page.LSN

	// tail retains recently shipped encoded blocks until evicted by count,
	// so a one-way ship frame lost to a conn teardown can be retransmitted
	// round-trip. Bounded: tailMax blocks.
	tail      map[page.LSN]tailBlock
	tailOrder []page.LSN

	// shipPools holds one persistent netmux-pooled client per secondary,
	// so replication reuses warm multiplexed connections instead of
	// dialing a fresh one per shipped block.
	shipMu    sync.Mutex
	shipPools map[string]*rbio.Client

	wg            sync.WaitGroup
	ioWG          sync.WaitGroup
	inflight      chan struct{}
	bytesFlushed  atomic.Int64
	blocksFlushed atomic.Int64
	throttles     atomic.Int64
}

// tailBlock is one retained shipped block, kept for retransmission until
// evicted from the writer's bounded tail.
type tailBlock struct {
	end     page.LSN
	payload []byte
}

// tailMax bounds how many shipped blocks the writer retains for
// retransmission to laggards.
const tailMax = 512

// retransmitAfter is how long a shipped block may sit without quorum
// coverage before the writer re-ships it round-trip to every laggard.
// Comfortably above the cross-AZ round trip (~2.6 ms), so a healthy
// deployment never retransmits.
const retransmitAfter = 4 * time.Millisecond

func newWriter(c *Cluster, startLSN page.LSN) *writer {
	w := &writer{
		c:            c,
		nextLSN:      startLSN,
		hardened:     startLSN,
		backedUp:     startLSN,
		localDurable: startLSN,
		blockSizes:   make(map[page.LSN]int64),
		completed:    make(map[page.LSN]page.LSN),
		secAcks:      make(map[string]page.LSN),
		tail:         make(map[page.LSN]tailBlock),
		inflight:     make(chan struct{}, 8),
		shipPools:    make(map[string]*rbio.Client),
	}
	w.cond = sync.NewCond(&w.mu)
	c.Net.Serve(w.ackAddr(), w.ackHandler())
	w.wg.Add(2)
	go w.flushLoop()
	go w.backupLoop()
	return w
}

// ackAddr is the fabric address of the writer's harden-ack endpoint.
func (w *writer) ackAddr() string { return w.c.cfg.Name + "-ack" }

// ackHandler serves the writer's ack endpoint: cumulative one-way harden
// reports from secondaries, one frame acknowledging every block at or
// below its LSN.
func (w *writer) ackHandler() rbio.Handler {
	return func(_ context.Context, req *rbio.Request) *rbio.Response {
		switch req.Type {
		case rbio.MsgPing:
			return rbio.Ok()
		case rbio.MsgHardenReport:
			w.recordAck(req.Consumer, req.LSN)
			return rbio.Ok()
		default:
			return rbio.Errorf("hadr: unsupported ack message %v", req.Type)
		}
	}
}

// recordAck merges one secondary's cumulative harden watermark and
// re-derives the quorum watermark. Acks are monotone; stale or duplicate
// reports are no-ops.
func (w *writer) recordAck(name string, lsn page.LSN) {
	if name == "" {
		return
	}
	w.mu.Lock()
	if lsn.After(w.secAcks[name]) {
		w.secAcks[name] = lsn
		w.advanceLocked()
	}
	w.mu.Unlock()
}

// advanceLocked recomputes the quorum-hardened watermark: the highest LSN
// that is locally durable (as a prefix) and cumulatively acked by any
// Quorum-1 secondaries — a flexible quorum in the Taurus style, where any
// quorum-sized subset of replicas may harden a given block. Caller holds
// w.mu.
func (w *writer) advanceLocked() {
	need := w.c.cfg.Quorum - 1 // the local copy counts toward quorum
	cand := w.localDurable
	if need > 0 {
		if len(w.secAcks) < need {
			return
		}
		acks := make([]page.LSN, 0, len(w.secAcks))
		for _, l := range w.secAcks {
			acks = append(acks, l)
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
	if ctx == nil {
		ctx = context.Background()
	}
	// The callback must take w.mu (context.AfterFunc docs): an unlocked
	// Broadcast can fire between the ctx.Err() check and cond.Wait()
	// registering — a missed wakeup that strands the waiter.
	stop := context.AfterFunc(ctx, func() {
		w.mu.Lock()
		defer w.mu.Unlock()
		w.cond.Broadcast()
	})
	defer stop()
	// commit.harden: the committer is blocked on quorum replication of its
	// LSN. Recorded only when the loop actually blocks.
	region := w.c.cfg.Waits.Begin(ctx, obs.WaitCommitHarden)
	waited := false
	defer func() { region.EndIf(waited) }()
	w.mu.Lock()
	defer w.mu.Unlock()
	for w.hardened.AtMost(lsn) && w.err == nil && !w.closed {
		if err := ctx.Err(); err != nil {
			return socerr.FromContext(err)
		}
		waited = true
		w.cond.Wait()
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
	w.ioWG.Wait() // drain in-flight quorum rounds
	w.c.Net.Unserve(w.ackAddr())
	w.shipMu.Lock()
	for _, cl := range w.shipPools {
		//socrates:ignore-err teardown of replication clients on writer close; the pools own no durable state
		_ = cl.Close()
	}
	w.shipPools = nil
	w.shipMu.Unlock()
}

// shipTimeout bounds one replication RPC to a secondary: an unreachable
// replica must not wedge a quorum round forever.
const shipTimeout = 10 * time.Second

// shipClient returns the persistent pooled client for secondary name,
// creating it on first use. The pool keeps warm multiplexed connections
// across shipped blocks, evicting and redialing only on failure.
func (w *writer) shipClient(name string) *rbio.Client {
	w.shipMu.Lock()
	defer w.shipMu.Unlock()
	if cl, ok := w.shipPools[name]; ok {
		return cl
	}
	if w.shipPools == nil {
		w.shipPools = make(map[string]*rbio.Client)
	}
	pool := netmux.NewPool(name,
		func(a string) (rbio.Conn, error) { return w.c.Net.Dial(a), nil },
		netmux.Options{})
	cl := rbio.NewClient(pool)
	w.shipPools[name] = cl
	return cl
}

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
			stallStart := time.Now()
			for w.unbackedLen > w.c.cfg.BackupLagBudget && !w.closed {
				w.throttles.Add(1)
				waker := time.AfterFunc(time.Millisecond, w.cond.Broadcast)
				//socrates:wait-ok charged below as backpressure via a running total per throttle episode
				w.cond.Wait()
				waker.Stop()
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
			if err := w.ship(block); err != nil {
				w.mu.Lock()
				if w.err == nil {
					w.err = err
				}
				w.cond.Broadcast()
				w.mu.Unlock()
				return
			}
			size := int64(block.EncodedSize())
			w.blocksFlushed.Add(1)
			w.bytesFlushed.Add(size)

			w.mu.Lock()
			w.blockSizes[block.Start] = size
			w.blockOrder = append(w.blockOrder, block.Start)
			w.unbackedLen += size
			w.cond.Broadcast()
			w.mu.Unlock()
		}(block)
	}
}

// ship hardens the block locally, fires it at every secondary as a one-way
// frame, and waits for the flexible quorum to cover it. Cumulative acks
// arrive on the writer's ack endpoint (one ack frame covers every pipelined
// block below its LSN); a send that fails outright is repeated as a round
// trip whose response carries the same cumulative ack. A one-way frame lost
// to a conn teardown is recovered by the retransmit loop, so loss costs
// latency, never a commit.
func (w *writer) ship(block *wal.Block) error {
	prim := w.c.Primary()
	if err := prim.harden(block); err != nil {
		return err
	}
	secs := w.c.Secondaries()
	need := w.c.cfg.Quorum - 1 // local copy already hardened
	if need > len(secs) {
		return ErrNoQuorum
	}
	payload := block.Encode()

	w.mu.Lock()
	// Local durability advances as a prefix (ships are pipelined and local
	// hardens complete out of order); the quorum watermark never passes it.
	w.completed[block.Start] = block.End
	for {
		end, ok := w.completed[w.localDurable]
		if !ok {
			break
		}
		delete(w.completed, w.localDurable)
		w.localDurable = end
	}
	// Retain the encoded block for retransmission until evicted.
	w.tail[block.Start] = tailBlock{end: block.End, payload: payload}
	w.tailOrder = append(w.tailOrder, block.Start)
	for len(w.tailOrder) > tailMax {
		delete(w.tail, w.tailOrder[0])
		w.tailOrder = w.tailOrder[1:]
	}
	w.advanceLocked()
	w.mu.Unlock()

	var fails atomic.Int32
	qstart := time.Now()
	for _, sec := range secs {
		go func(name string) {
			ctx, cancel := context.WithTimeout(context.Background(), shipTimeout)
			defer cancel()
			cl := w.shipClient(name)
			req := &rbio.Request{Type: rbio.MsgFeedBlock, Payload: payload}
			if err := cl.Send(ctx, req); err == nil {
				return // cumulative ack arrives on the ack endpoint
			}
			// The one-way send failed outright: round-trip ship; the
			// response carries the same cumulative ack.
			resp, err := cl.Call(ctx, req)
			if err == nil {
				err = resp.Err()
			}
			if err != nil {
				fails.Add(1)
				return
			}
			w.recordAck(name, resp.LSN)
		}(sec.name)
	}

	// commit.quorum: wait until the flexible quorum covers this block,
	// retransmitting round-trip to laggards whose cumulative ack stalls.
	deadline := time.Now().Add(shipTimeout)
	next := time.Now().Add(retransmitAfter)
	w.mu.Lock()
	for w.hardened.Before(block.End) && w.err == nil {
		if int(fails.Load()) > len(secs)-need {
			n := fails.Load()
			w.mu.Unlock()
			return fmt.Errorf("%w: %d/%d secondaries failed", ErrNoQuorum, n, len(secs))
		}
		now := time.Now()
		if now.After(deadline) {
			w.mu.Unlock()
			return ErrNoQuorum
		}
		if now.After(next) {
			laggards := make([]string, 0, len(secs))
			for _, sec := range secs {
				if w.secAcks[sec.name].Before(block.End) {
					laggards = append(laggards, sec.name)
				}
			}
			w.mu.Unlock()
			roundFails := 0
			for _, name := range laggards {
				if !w.retransmit(name, block.End, deadline) {
					roundFails++
				}
			}
			if len(secs)-roundFails < need {
				return fmt.Errorf("%w: %d/%d secondaries unreachable", ErrNoQuorum, roundFails, len(secs))
			}
			next = time.Now().Add(retransmitAfter)
			w.mu.Lock()
			continue
		}
		waker := time.AfterFunc(time.Millisecond, func() {
			w.mu.Lock()
			defer w.mu.Unlock()
			w.cond.Broadcast()
		})
		//socrates:wait-ok charged as commit.quorum via the qstart running total once the flexible quorum acks
		w.cond.Wait()
		waker.Stop()
	}
	covered := !w.hardened.Before(block.End)
	err := w.err
	w.mu.Unlock()
	if !covered {
		if err != nil {
			return err
		}
		return ErrNoQuorum
	}
	w.c.cfg.Waits.Observe(nil, obs.WaitCommitQuorum, time.Since(qstart))
	return nil
}

// retransmit re-ships, round-trip, every retained block below upTo that
// the laggard has not yet cumulatively acked, oldest first. This is the
// loss-recovery half of the one-way ship contract: a frame dropped by a
// conn teardown is re-delivered here, and the secondary's dedupe makes
// re-delivery idempotent. Reports whether the laggard was reachable.
func (w *writer) retransmit(name string, upTo page.LSN, deadline time.Time) bool {
	w.mu.Lock()
	from := w.secAcks[name]
	starts := make([]page.LSN, 0, 4)
	for s, tb := range w.tail {
		if s.Before(upTo) && tb.end.After(from) {
			starts = append(starts, s)
		}
	}
	sort.Slice(starts, func(i, j int) bool { return starts[i].Before(starts[j]) })
	payloads := make([][]byte, len(starts))
	for i, s := range starts {
		payloads[i] = w.tail[s].payload
	}
	w.mu.Unlock()
	cl := w.shipClient(name)
	for _, p := range payloads {
		ctx, cancel := context.WithDeadline(context.Background(), deadline)
		resp, err := cl.Call(ctx, &rbio.Request{Type: rbio.MsgFeedBlock, Payload: p})
		cancel()
		if err == nil {
			err = resp.Err()
		}
		if err != nil {
			return false
		}
		w.recordAck(name, resp.LSN)
	}
	return true
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
	if len(w.blockOrder) == 0 {
		w.mu.Unlock()
		return
	}
	starts := w.blockOrder
	w.blockOrder = nil
	var total int64
	for _, s := range starts {
		total += w.blockSizes[s]
		delete(w.blockSizes, s)
	}
	w.mu.Unlock()

	// The backup payload is a synthetic run of the same size as the log
	// range: what matters is the egress it consumes at XStore.
	if err := w.c.Store.Append(w.c.cfg.Name+"/logbackup", make([]byte, total)); err != nil {
		// XStore unavailable: re-queue so the lag budget keeps throttling.
		w.mu.Lock()
		for _, s := range starts {
			w.blockSizes[s] = 0 // sizes merged into the front entry below
		}
		w.blockSizes[starts[0]] = total
		w.blockOrder = append(starts, w.blockOrder...)
		w.mu.Unlock()
		return
	}
	w.mu.Lock()
	w.unbackedLen -= total
	if w.unbackedLen < 0 {
		w.unbackedLen = 0
	}
	w.cond.Broadcast()
	w.mu.Unlock()
}

var _ engine.LogPipeline = (*writer)(nil)
