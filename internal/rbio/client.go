package rbio

import (
	"context"
	"errors"
	"sync"
	"time"

	"socrates/internal/socerr"
)

// Client wraps a Conn with version and trace stamping, transient-failure
// retry, and QoS latency tracking for best-replica selection.
type Client struct {
	conn     Conn
	retries  int
	backoff  time.Duration
	mu       sync.Mutex
	ewma     float64 // nanoseconds; 0 = no samples yet
	failures int     // consecutive failures (reset on success)
}

// ClientOption configures a Client.
type ClientOption func(*Client)

// WithRetries sets the number of attempts for retryable failures.
func WithRetries(n int) ClientOption { return func(c *Client) { c.retries = n } }

// WithBackoff sets the base backoff between retries (linear).
func WithBackoff(d time.Duration) ClientOption { return func(c *Client) { c.backoff = d } }

// NewClient wraps conn.
func NewClient(conn Conn, opts ...ClientOption) *Client {
	c := &Client{conn: conn, retries: 5, backoff: 500 * time.Microsecond}
	for _, o := range opts {
		o(c)
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

// Close releases the underlying connection.
func (c *Client) Close() error { return c.conn.Close() }

const ewmaAlpha = 0.2

func (c *Client) observe(d time.Duration, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if ok {
		c.failures = 0
		if c.ewma == 0 {
			c.ewma = float64(d)
		} else {
			c.ewma = ewmaAlpha*float64(d) + (1-ewmaAlpha)*c.ewma
		}
	} else {
		c.failures++
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

// Failures reports the consecutive-failure count.
func (c *Client) Failures() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.failures
}

// Call issues the request, retrying transport errors and StatusRetry
// responses with linear backoff. Every other status — StatusVersion
// included — is terminal and returns after one attempt; a cancelled or
// expired context returns a socerr-classified error.
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
		resp, err := c.conn.Call(ctx, req)
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

// Send delivers a fire-and-forget request (no retry: the path is lossy by
// contract and the caller compensates, as XLOG's pending area does).
func (c *Client) Send(ctx context.Context, req *Request) error {
	stamp(ctx, req)
	return c.conn.Send(ctx, req)
}

// Selector routes calls to the fastest healthy endpoint among a replica
// set — the paper's "QoS support for best replica selection" (§3.4).
type Selector struct {
	mu      sync.Mutex
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

// Len reports the endpoint count.
func (s *Selector) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.clients)
}

// Remove drops every endpoint whose address matches addr, reporting how
// many were removed. Cluster workflows use it when a page-server replica
// is retired or killed, so the selector stops burning failover attempts
// on a permanently dead endpoint.
func (s *Selector) Remove(addr string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	kept := s.clients[:0]
	removed := 0
	for _, c := range s.clients {
		if c.Addr() == addr {
			removed++
			continue
		}
		kept = append(kept, c)
	}
	s.clients = kept
	return removed
}

// Best returns the endpoint with the lowest smoothed latency, preferring
// unsampled endpoints over sampled ones so every replica gets probed.
func (s *Selector) Best() *Client {
	s.mu.Lock()
	defer s.mu.Unlock()
	var best *Client
	var bestLat time.Duration
	for _, c := range s.clients {
		lat := c.EWMA()
		if lat == 0 {
			return c // unprobed: try it
		}
		if best == nil || lat < bestLat {
			best, bestLat = c, lat
		}
	}
	return best
}

// Call routes the request to the best endpoint, failing over to the others
// in latency order if it errors.
func (s *Selector) Call(ctx context.Context, req *Request) (*Response, error) {
	s.mu.Lock()
	ordered := append([]*Client(nil), s.clients...)
	s.mu.Unlock()
	if len(ordered) == 0 {
		return nil, ErrUnavailable
	}
	// Simple selection: try Best first, then the rest.
	best := s.Best()
	tried := map[*Client]bool{}
	var lastErr error
	for _, c := range append([]*Client{best}, ordered...) {
		if c == nil || tried[c] {
			continue
		}
		tried[c] = true
		resp, err := c.Call(ctx, req)
		if err == nil {
			return resp, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			return nil, socerr.FromContext(ctx.Err())
		}
	}
	return nil, lastErr
}
