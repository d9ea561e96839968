package rbio

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"socrates/internal/obs"
	"socrates/internal/socerr"
)

// Admission limits per client, i.e. per destination. Past maxInflight
// calls a caller waits in a bounded queue; past maxQueue waiters it fails
// fast with socerr.ErrBackpressure instead of piling up goroutines. The
// read-ahead window (DESIGN §17) is sized against maxInflight.
const (
	maxInflight = 64
	maxQueue    = 256
)

// Metrics bundles the fabric's obs instruments. A nil *Metrics, or a nil
// field, disables that instrument (a nil Waits still charges the caller's
// profile and span). The registry names keep their netmux prefix: they
// describe the inter-tier fabric, whichever package counts.
type Metrics struct {
	Inflight     *obs.Gauge     // calls admitted and not yet returned
	QueueDepth   *obs.Gauge     // callers waiting for an in-flight slot
	QueueWait    *obs.Histogram // time spent waiting for a slot
	Backpressure *obs.Counter   // fail-fast rejections (queue bound hit)
	LateDrops    *obs.Counter   // mux responses dropped by ID after abandonment

	// Waits receives wait-event accounting: netmux.queue while a caller
	// waits for an in-flight slot, netmux.rtt while a mux call is on the
	// wire.
	Waits *obs.WaitRecorder
	// Flight receives backpressure trips.
	Flight *obs.FlightRecorder
}

// NewMetrics registers the fabric's instruments on p's registry, charges
// its waits to p's "netmux" pseudo-tier (the fabric is shared by every
// tier, so per-tier attribution happens at the caller, e.g. page.remote)
// and records its events in p's flight ring.
func NewMetrics(p obs.Plane) *Metrics {
	r := p.Metrics
	return &Metrics{
		Inflight:     r.Gauge("netmux.inflight"),
		QueueDepth:   r.Gauge("netmux.queue.depth"),
		QueueWait:    r.Histogram("netmux.queue.wait"),
		Backpressure: r.Counter("netmux.backpressure.trips"),
		LateDrops:    r.Counter("netmux.late.drops"),
		Waits:        p.Waits.Tier("netmux"),
		Flight:       p.Flight,
	}
}

// Client is the one RPC client per destination: it wraps a Conn with
// version and trace stamping, admission (an in-flight cap and a bounded
// wait queue), transient-failure retry, and QoS latency tracking for
// best-replica selection.
type Client struct {
	conn    Conn
	retries int
	backoff time.Duration
	m       *Metrics // never nil

	sem     chan struct{} // in-flight slots
	waiters atomic.Int64  // callers queued for a slot
	closed  atomic.Bool

	mu   sync.Mutex
	ewma float64 // nanoseconds; 0 = no samples yet
}

// ClientOption configures a Client.
type ClientOption func(*Client)

// WithRetries sets the number of attempts for retryable failures; a client
// always makes at least one.
func WithRetries(n int) ClientOption { return func(c *Client) { c.retries = n } }

// WithBackoff sets the base backoff between retries (linear).
func WithBackoff(d time.Duration) ClientOption { return func(c *Client) { c.backoff = d } }

// WithMetrics instruments the client's admission (and nothing else: the
// conn under it carries its own).
func WithMetrics(m *Metrics) ClientOption { return func(c *Client) { c.m = m } }

// NewClient wraps conn.
func NewClient(conn Conn, opts ...ClientOption) *Client {
	c := &Client{
		conn:    conn,
		retries: 5,
		backoff: 500 * time.Microsecond,
		sem:     make(chan struct{}, maxInflight),
	}
	for _, o := range opts {
		o(c)
	}
	c.retries = max(c.retries, 1)
	if c.m == nil {
		c.m = &Metrics{}
	}
	return c
}

// stamp prepares req for the wire: the protocol version and the span
// identity from ctx.
func stamp(ctx context.Context, req *Request) {
	req.Version = Version
	req.StampTrace(ctx)
}

// Addr reports the remote endpoint.
func (c *Client) Addr() string { return c.conn.Addr() }

// Close releases the underlying connection; later calls fail with
// socerr.ErrClosed.
func (c *Client) Close() error {
	c.closed.Store(true)
	return c.conn.Close()
}

// admit takes an in-flight slot, waiting in the bounded queue when the cap
// is hit and failing fast with socerr.ErrBackpressure when the queue is
// full too. A closed client admits nothing.
func (c *Client) admit(ctx context.Context) error {
	if c.closed.Load() {
		return fmt.Errorf("%w: rbio client %s", socerr.ErrClosed, c.conn.Addr())
	}
	m := c.m
	select {
	case c.sem <- struct{}{}:
		m.Inflight.Add(1)
		return nil
	default:
	}
	if w := c.waiters.Add(1); w > maxQueue {
		c.waiters.Add(-1)
		m.Backpressure.Inc()
		err := fmt.Errorf("%w: %s: %d in flight and %d queued",
			socerr.ErrBackpressure, c.conn.Addr(), maxInflight, maxQueue)
		m.Flight.Record("netmux", "backpressure", 0, 0, err.Error())
		return err
	}
	start := time.Now()
	m.QueueDepth.Add(1)
	defer func() {
		c.waiters.Add(-1)
		m.QueueDepth.Add(-1)
		m.QueueWait.Since(start)
		// netmux.queue: admission wait behind the in-flight cap (recorded
		// whether the slot arrived or ctx expired — blocked time either way).
		m.Waits.Observe(ctx, obs.WaitMuxQueue, time.Since(start))
	}()
	select {
	case c.sem <- struct{}{}:
		m.Inflight.Add(1)
		return nil
	case <-ctx.Done():
		return socerr.FromContext(ctx.Err())
	}
}

// release returns an in-flight slot taken by admit.
func (c *Client) release() {
	<-c.sem
	c.m.Inflight.Add(-1)
}

// do is one admitted attempt on the conn.
func (c *Client) do(ctx context.Context, req *Request) (*Response, error) {
	if err := c.admit(ctx); err != nil {
		return nil, err
	}
	defer c.release()
	return c.conn.Call(ctx, req)
}

const ewmaAlpha = 0.2

func (c *Client) observe(d time.Duration, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if ok {
		if c.ewma == 0 {
			c.ewma = float64(d)
		} else {
			c.ewma = ewmaAlpha*float64(d) + (1-ewmaAlpha)*c.ewma
		}
	} else {
		// Penalize the endpoint so the selector steers around it.
		if c.ewma == 0 {
			c.ewma = float64(time.Second)
		} else {
			c.ewma *= 4
		}
	}
}

// EWMA reports the smoothed call latency (0 before the first sample).
func (c *Client) EWMA() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return time.Duration(c.ewma)
}

// Call issues the request, retrying transport errors and StatusRetry
// responses with linear backoff. Every other status — StatusVersion
// included — is terminal and returns after one attempt, as are
// socerr.ErrBackpressure (retrying would feed the overload) and
// socerr.ErrClosed; a cancelled or expired context returns a
// socerr-classified error.
func (c *Client) Call(ctx context.Context, req *Request) (*Response, error) {
	stamp(ctx, req)
	var lastErr error
	for attempt := 0; attempt < c.retries; attempt++ {
		if attempt > 0 && c.backoff > 0 {
			if err := sleepCtx(ctx, c.backoff*time.Duration(attempt)); err != nil {
				return nil, err
			}
		}
		if err := ctx.Err(); err != nil {
			return nil, socerr.FromContext(err)
		}
		start := time.Now()
		resp, err := c.do(ctx, req)
		if err != nil {
			c.observe(0, false)
			lastErr = err
			if errors.Is(err, ErrUnavailable) {
				continue // node may come back under the same address
			}
			return nil, err
		}
		c.observe(time.Since(start), true)
		if resp.Status != StatusRetry {
			return resp, nil
		}
		lastErr = resp.Err()
	}
	return nil, lastErr
}

// sleepCtx waits for d or until ctx is done, classifying the context
// error through socerr.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return socerr.FromContext(ctx.Err())
	case <-t.C:
		return nil
	}
}

// Send delivers a fire-and-forget request. It passes admission like Call
// but is never retried: the path is lossy by contract, so a backpressure
// rejection is one more dropped datagram and the caller compensates, as
// XLOG's pending area does.
func (c *Client) Send(ctx context.Context, req *Request) error {
	stamp(ctx, req)
	if err := c.admit(ctx); err != nil {
		return err
	}
	defer c.release()
	return c.conn.Send(ctx, req)
}

// Selector routes calls to the fastest healthy endpoint among a replica
// set — the paper's "QoS support for best replica selection" (§3.4).
type Selector struct {
	mu sync.Mutex
	// clients is copy-on-write under mu: Add only appends past every
	// published length and Remove builds a new slice, so Call reads a
	// snapshot without holding mu.
	clients []*Client
}

// NewSelector builds a selector over the given clients.
func NewSelector(clients ...*Client) *Selector {
	return &Selector{clients: append([]*Client(nil), clients...)}
}

// Add registers another endpoint.
func (s *Selector) Add(c *Client) {
	s.mu.Lock()
	s.clients = append(s.clients, c)
	s.mu.Unlock()
}

// Remove drops every endpoint whose address matches addr, reporting how
// many were removed. Cluster workflows use it when a page-server replica
// is retired or killed, so the selector stops burning failover attempts
// on a permanently dead endpoint.
func (s *Selector) Remove(addr string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	kept := make([]*Client, 0, len(s.clients))
	for _, c := range s.clients {
		if c.Addr() != addr {
			kept = append(kept, c)
		}
	}
	removed := len(s.clients) - len(kept)
	s.clients = kept
	return removed
}

func (s *Selector) snapshot() []*Client {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.clients
}

// best returns the endpoint with the lowest smoothed latency, preferring
// unsampled endpoints over sampled ones so every replica gets probed.
func best(clients []*Client) *Client {
	var b *Client
	var bestLat time.Duration
	for _, c := range clients {
		lat := c.EWMA()
		if lat == 0 {
			return c // unprobed: try it
		}
		if b == nil || lat < bestLat {
			b, bestLat = c, lat
		}
	}
	return b
}

// Call routes the request to the best endpoint, failing over to the others
// in registration order if it errors.
func (s *Selector) Call(ctx context.Context, req *Request) (*Response, error) {
	clients := s.snapshot()
	first := best(clients)
	if first == nil {
		return nil, ErrUnavailable
	}
	resp, err := first.Call(ctx, req)
	for _, c := range clients {
		if err == nil || ctx.Err() != nil {
			break
		}
		if c != first {
			resp, err = c.Call(ctx, req)
		}
	}
	if err != nil && ctx.Err() != nil {
		return nil, socerr.FromContext(ctx.Err())
	}
	return resp, err
}
