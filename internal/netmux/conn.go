package netmux

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"socrates/internal/obs"
	"socrates/internal/rbio"
	"socrates/internal/socerr"
)

// muxResult is what a demuxed response delivers to its waiting caller.
type muxResult struct {
	resp *rbio.Response
	err  error
}

// MuxConn multiplexes many concurrent RPCs over one stream. It
// implements rbio.Conn, so rbio.Client's stamping/retry/QoS layers work
// unchanged on top.
//
// Lifecycle of a call: assign a request ID, register a waiter, write a
// FrameMuxCall, park on the waiter channel. The demux goroutine reads
// response frames and delivers each to the waiter registered under its
// ID. Cancellation deregisters the waiter and returns immediately — the
// response, when it eventually arrives, finds no waiter and is dropped
// (counted in rbio.Metrics.LateDrops). The connection stays healthy: a late
// response carries its request ID, so there is nothing it could be
// mispaired with.
//
// The connection dies only on torn framing: a read error, an
// undecodable response, an unexpected frame kind, or a write that failed
// after part of a frame reached the stream. Then every parked waiter
// fails with rbio.ErrUnavailable, as do future calls.
type MuxConn struct {
	conn      net.Conn
	addr      string
	lateDrops *obs.Counter
	waits     *obs.WaitRecorder // nil still charges the caller's profile and span

	writeMu sync.Mutex // serializes frames; guards SetWriteDeadline too

	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]chan muxResult // nil once the conn is dead
	err     error                     // first fatal error, set once
}

// newMuxConn wraps an established stream. It takes ownership of conn and
// starts the demux goroutine. m may be nil.
func newMuxConn(conn net.Conn, addr string, m *rbio.Metrics) *MuxConn {
	c := &MuxConn{
		conn:    conn,
		addr:    addr,
		pending: make(map[uint64]chan muxResult),
	}
	if m != nil {
		c.lateDrops, c.waits = m.LateDrops, m.Waits
	}
	go c.demux()
	return c
}

// Addr identifies the remote endpoint.
func (c *MuxConn) Addr() string { return c.addr }

// Healthy reports whether the connection can still carry calls.
func (c *MuxConn) Healthy() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err == nil
}

// Pending reports the number of registered waiters (tests/diagnostics).
func (c *MuxConn) Pending() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pending)
}

// Close tears the connection down; parked callers fail with
// rbio.ErrUnavailable.
func (c *MuxConn) Close() error {
	c.fail(errors.New("netmux: connection closed"))
	return nil
}

// muxWaiterPool recycles the per-call waiter channels. The recycling
// contract: every delivery (demux, fail) happens while holding c.mu and
// only while the channel is still registered in c.pending, so once a
// caller has removed its entry — by receiving (demux deletes before
// sending) or by abandon — no further send can occur, and after a
// non-blocking drain the channel is provably empty and safe to reuse.
var muxWaiterPool = sync.Pool{
	New: func() any { return make(chan muxResult, 1) },
}

// register assigns a request ID and parks a pooled waiter under it.
func (c *MuxConn) register() (uint64, chan muxResult, error) {
	ch := muxWaiterPool.Get().(chan muxResult)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		muxWaiterPool.Put(ch)
		return 0, nil, fmt.Errorf("%w: %s: %v", rbio.ErrUnavailable, c.addr, c.err)
	}
	id := c.nextID
	c.nextID++
	c.pending[id] = ch
	return id, ch, nil
}

// abandon removes the waiter for id, if still registered, and recycles
// its channel. The demux loop will drop the response by ID when (if) it
// arrives. Any delivery raced ahead of us under c.mu, so after the
// unlock the drain below observes it and the channel is empty for reuse.
func (c *MuxConn) abandon(id uint64, ch chan muxResult) {
	c.mu.Lock()
	delete(c.pending, id)
	c.mu.Unlock()
	select {
	case <-ch:
	default:
	}
	muxWaiterPool.Put(ch)
}

// fail marks the connection dead (first error wins), delivers the
// failure to every parked waiter, and closes the stream. Delivery
// happens under c.mu — each channel is buffered and has exactly one
// outstanding send — which is what makes waiter-channel recycling safe
// against a racing abandon.
func (c *MuxConn) fail(err error) {
	c.mu.Lock()
	if c.err != nil {
		c.mu.Unlock()
		return
	}
	c.err = err
	wrapped := fmt.Errorf("%w: %s: %v", rbio.ErrUnavailable, c.addr, err)
	for _, ch := range c.pending {
		//socrates:lock-ok buffered channel with exactly one outstanding send never blocks; sending under c.mu is what makes waiter-channel recycling race-free against abandon
		ch <- muxResult{err: wrapped}
	}
	c.pending = nil
	c.mu.Unlock()
	_ = c.conn.Close()
}

// writeFrame emits one frame under the write mutex, bounding the write
// by the context deadline if one is set. The socket is shared, so a caller
// whose context ended while it queued for the mutex leaves without
// touching it, and a deadline that cut the write off before its first byte
// is that caller's timeout alone. Any other write error is fatal for the
// whole connection: the stream is broken, or ends in a torn frame.
func (c *MuxConn) writeFrame(ctx context.Context, kind byte, payload []byte) error {
	c.writeMu.Lock()
	if err := ctx.Err(); err != nil {
		c.writeMu.Unlock()
		return socerr.FromContext(err)
	}
	if d, ok := ctx.Deadline(); ok {
		_ = c.conn.SetWriteDeadline(d)
	} else {
		_ = c.conn.SetWriteDeadline(time.Time{})
	}
	n, err := rbio.WriteFrame(c.conn, kind, payload)
	c.writeMu.Unlock()
	if err == nil {
		return nil
	}
	if n == 0 && errors.Is(err, os.ErrDeadlineExceeded) {
		return socerr.FromContext(context.DeadlineExceeded)
	}
	c.fail(fmt.Errorf("netmux: torn write: %w", err))
	return fmt.Errorf("%w: %s: %v", rbio.ErrUnavailable, c.addr, err)
}

// muxFramePool recycles the [id][request] staging buffers for the call
// and send paths; a buffer is reusable as soon as writeFrame returns.
var muxFramePool = sync.Pool{
	New: func() any { b := make([]byte, 0, 512); return &b },
}

// writeMuxFrame stages [8-byte LE id][encoded request] in a pooled
// buffer and emits it as one frame.
//
//socrates:hotpath runs once per RPC issued on the fabric; TestMuxCallAllocs
func (c *MuxConn) writeMuxFrame(ctx context.Context, kind byte, id uint64, req *rbio.Request) error {
	bp := muxFramePool.Get().(*[]byte)
	buf := binary.LittleEndian.AppendUint64((*bp)[:0], id)
	buf = rbio.AppendRequest(buf, req)
	err := c.writeFrame(ctx, kind, buf)
	*bp = buf[:0]
	muxFramePool.Put(bp)
	return err
}

// Call issues req and waits for the response paired to its request ID.
// A cancelled or expired context abandons the slot without harming the
// connection.
//
//socrates:hotpath every GetPage/commit RPC rides this; budget enforced by TestMuxCallAllocs
func (c *MuxConn) Call(ctx context.Context, req *rbio.Request) (*rbio.Response, error) {
	if err := ctx.Err(); err != nil {
		return nil, socerr.FromContext(err)
	}
	id, ch, err := c.register()
	if err != nil {
		return nil, err
	}
	if err := c.writeMuxFrame(ctx, rbio.FrameMuxCall, id, req); err != nil {
		c.abandon(id, ch)
		return nil, err
	}
	// netmux.rtt: the frame is on the wire; everything until the demux
	// goroutine delivers the paired response is network round-trip.
	region := c.waits.Begin(ctx, obs.WaitMuxRTT)
	select {
	case res := <-ch:
		region.End()
		muxWaiterPool.Put(ch)
		return res.resp, res.err
	case <-ctx.Done():
		region.End()
		c.abandon(id, ch)
		return nil, socerr.FromContext(ctx.Err())
	}
}

// Send delivers req fire-and-forget over the mux stream.
//
//socrates:hotpath the lossy log feed issues one of these per block; TestMuxCallAllocs
func (c *MuxConn) Send(ctx context.Context, req *rbio.Request) error {
	//socrates:wait-ok ID-allocation latch held for two increments; the blocking part of a send is charged as netmux.queue at the frame writer
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return fmt.Errorf("%w: %s: %v", rbio.ErrUnavailable, c.addr, err)
	}
	id := c.nextID
	c.nextID++
	c.mu.Unlock()
	return c.writeMuxFrame(ctx, rbio.FrameMuxOneway, id, req)
}

// demux reads response frames and pairs them to waiters by request ID.
func (c *MuxConn) demux() {
	for {
		kind, frame, err := rbio.ReadFrame(c.conn)
		if err != nil {
			c.fail(fmt.Errorf("netmux: read: %w", err))
			return
		}
		if kind != rbio.FrameMuxResp || len(frame) < 8 {
			c.fail(fmt.Errorf("netmux: torn frame (kind %d, %d bytes)", kind, len(frame)))
			return
		}
		id := binary.LittleEndian.Uint64(frame[:8])
		resp, err := rbio.DecodeResponse(frame[8:])
		if err != nil {
			c.fail(fmt.Errorf("netmux: torn response: %w", err))
			return
		}
		// Deliver under the lock: recycling waiter channels is only safe
		// because a send can never race an abandon (both serialize on
		// c.mu, and the entry is removed in the same critical section as
		// the send). The channel is buffered with exactly one outstanding
		// send, so holding the lock across it never blocks.
		c.mu.Lock()
		ch, ok := c.pending[id]
		if ok {
			delete(c.pending, id)
			//socrates:lock-ok buffered channel with exactly one outstanding send never blocks; sending under c.mu is what makes waiter-channel recycling race-free against abandon
			ch <- muxResult{resp: resp}
		}
		c.mu.Unlock()
		if !ok {
			// Late response for an abandoned call: dropped by ID; the
			// connection is unharmed.
			c.lateDrops.Inc()
		}
	}
}

// dialTimeout bounds the TCP connect in DialTCP.
const dialTimeout = 5 * time.Second

// DialTCP connects to an RBIO endpoint and wraps the socket in a MuxConn.
// Nothing is exchanged at connect time: every request carries the protocol
// version and the server answers a mismatch per request. m may be nil.
func DialTCP(addr string, m *rbio.Metrics) (rbio.Conn, error) {
	raw, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", rbio.ErrUnavailable, err)
	}
	return newMuxConn(raw, addr, m), nil
}
