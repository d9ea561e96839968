package rbio

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"socrates/internal/obs"
	"socrates/internal/simdisk"
	"socrates/internal/socerr"
	"socrates/internal/testutil"
)

// blockingServer serves addr on an instant fabric with a handler that
// parks every call until release is closed, counting the calls that
// reached it.
func blockingServer(t *testing.T, addr string) (net *Network, release chan struct{}, served *atomic.Int64) {
	t.Helper()
	net = NewInstantNetwork()
	release = make(chan struct{})
	served = new(atomic.Int64)
	net.Serve(addr, func(context.Context, *Request) *Response {
		served.Add(1)
		<-release
		return Ok()
	})
	return net, release, served
}

// waitFor polls cond for up to 2s.
func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestClientBackpressureFailFast: once maxInflight calls are on the wire
// and maxQueue callers wait, the next caller must fail IMMEDIATELY with
// socerr.ErrBackpressure — not queue unboundedly, not hang, not retry.
func TestClientBackpressureFailFast(t *testing.T) {
	net, release, served := blockingServer(t, "ps")
	m := NewMetrics(obs.Plane{Metrics: obs.NewRegistry()})
	c := NewClient(net.Dial("ps"), WithMetrics(m))

	var wg sync.WaitGroup
	call := func() {
		defer wg.Done()
		_, _ = c.Call(context.Background(), &Request{Type: MsgPing})
	}
	for i := 0; i < maxInflight; i++ {
		wg.Add(1)
		go call()
	}
	waitFor(t, func() bool { return m.inflight.Value() == maxInflight && served.Load() == maxInflight }, "the in-flight cap filled")
	for i := 0; i < maxQueue; i++ {
		wg.Add(1)
		go call()
	}
	waitFor(t, func() bool { return c.waiters.Load() == maxQueue }, "the wait queue filled")

	start := time.Now()
	_, err := c.Call(context.Background(), &Request{Type: MsgPing})
	if !errors.Is(err, socerr.ErrBackpressure) {
		t.Fatalf("err = %v, want socerr.ErrBackpressure", err)
	}
	if d := time.Since(start); d > 500*time.Millisecond {
		t.Fatalf("backpressure rejection took %v, want fail-fast", d)
	}
	// Backpressure must NOT look like unavailability — the retry loop
	// would feed the overload.
	if errors.Is(err, ErrUnavailable) {
		t.Fatal("ErrBackpressure matches ErrUnavailable; the client would retry into the overload")
	}
	if err := c.Send(context.Background(), &Request{Type: MsgFeedBlock}); !errors.Is(err, socerr.ErrBackpressure) {
		t.Fatalf("Send err = %v, want socerr.ErrBackpressure", err)
	}
	if got := m.backpressure.Value(); got != 2 {
		t.Fatalf("backpressure trips = %d, want 2", got)
	}
	if got := m.queueDepth.Value(); got != maxQueue {
		t.Fatalf("queue depth gauge = %d, want %d", got, maxQueue)
	}
	close(release)
	wg.Wait()
	if got := served.Load(); got != maxInflight+maxQueue {
		t.Fatalf("handler served %d calls, want %d (one per admitted caller)", got, maxInflight+maxQueue)
	}
	if m.inflight.Value() != 0 || m.queueDepth.Value() != 0 {
		t.Fatalf("gauges after drain: inflight %d, queued %d", m.inflight.Value(), m.queueDepth.Value())
	}
}

// TestClientQueuedCallerHonorsContext: a caller parked in the wait queue
// must abandon its spot when its ctx expires.
func TestClientQueuedCallerHonorsContext(t *testing.T) {
	net, release, served := blockingServer(t, "ps")
	c := NewClient(net.Dial("ps"))

	var wg sync.WaitGroup
	for i := 0; i < maxInflight; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _ = c.Call(context.Background(), &Request{Type: MsgPing})
		}()
	}
	waitFor(t, func() bool { return served.Load() == maxInflight }, "the in-flight cap filled")

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Millisecond)
	defer cancel()
	if _, err := c.Call(ctx, &Request{Type: MsgPing}); !errors.Is(err, socerr.ErrTimeout) {
		t.Fatalf("err = %v, want socerr.ErrTimeout", err)
	}
	if n := c.waiters.Load(); n != 0 {
		t.Fatalf("%d callers still queued after ctx expiry", n)
	}
	close(release)
	wg.Wait()
}

// TestClientClosedFailsFast: calls and sends after Close fail with
// socerr.ErrClosed, without reaching the server.
func TestClientClosedFailsFast(t *testing.T) {
	net := NewInstantNetwork()
	var served atomic.Int64
	net.Serve("s", func(context.Context, *Request) *Response { served.Add(1); return Ok() })
	c := NewClient(net.Dial("s"))
	if _, err := c.Call(context.Background(), &Request{Type: MsgPing}); err != nil {
		t.Fatal(err)
	}
	_ = c.Close()
	if _, err := c.Call(context.Background(), &Request{Type: MsgPing}); !errors.Is(err, socerr.ErrClosed) {
		t.Fatalf("Call err = %v, want socerr.ErrClosed", err)
	}
	if err := c.Send(context.Background(), &Request{Type: MsgPing}); !errors.Is(err, socerr.ErrClosed) {
		t.Fatalf("Send err = %v, want socerr.ErrClosed", err)
	}
	if served.Load() != 1 {
		t.Fatalf("server reached %d times, want 1", served.Load())
	}
}

// TestClientAlwaysTriesOnce: a retry count below one still means one
// attempt, never a (nil, nil) result.
func TestClientAlwaysTriesOnce(t *testing.T) {
	net := NewInstantNetwork()
	net.Serve("s", func(context.Context, *Request) *Response { return Ok() })
	for _, n := range []int{0, -1} {
		c := NewClient(net.Dial("s"), withRetries(n))
		resp, err := c.Call(context.Background(), &Request{Type: MsgPing})
		if err != nil || resp == nil || resp.Status != StatusOK {
			t.Fatalf("WithRetries(%d): resp=%v err=%v, want an OK response", n, resp, err)
		}
	}
}

// TestSeverTearsCallsInFlight: a call parked in its handler when the
// fabric is severed loses its response — one attempt surfaces
// ErrUnavailable, the default retries carry it through.
func TestSeverTearsCallsInFlight(t *testing.T) {
	for _, tc := range []struct {
		name    string
		opts    []clientOption
		wantErr bool
	}{
		{"one attempt", []clientOption{withRetries(1)}, true},
		{"default retries", nil, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net, release, served := blockingServer(t, "ps")
			c := NewClient(net.Dial("ps"), tc.opts...)
			done := make(chan error, 1)
			go func() {
				_, err := c.Call(context.Background(), &Request{Type: MsgPing})
				done <- err
			}()
			waitFor(t, func() bool { return served.Load() == 1 }, "the call parked in its handler")
			if n := net.Sever(); n != 1 {
				t.Fatalf("Sever tore %d calls, want 1", n)
			}
			close(release)
			err := <-done
			if tc.wantErr {
				if !errors.Is(err, ErrUnavailable) {
					t.Fatalf("err = %v, want ErrUnavailable", err)
				}
				return
			}
			if err != nil {
				t.Fatalf("err = %v, want the retry to succeed", err)
			}
			if served.Load() != 2 {
				t.Fatalf("handler reached %d times, want 2 (the torn attempt and its retry)", served.Load())
			}
		})
	}
	// With nothing in flight a sever tears nothing.
	if n := NewInstantNetwork().Sever(); n != 0 {
		t.Fatalf("idle Sever tore %d calls", n)
	}
}

// TestSeverDropsUndeliveredSends: a fire-and-forget send still on the wire
// when the fabric is severed never reaches its handler; a later one does.
func TestSeverDropsUndeliveredSends(t *testing.T) {
	net := NewNetworkWith(simdisk.Profile{Name: "slow", ReadBase: 50 * time.Millisecond})
	var received atomic.Int64
	net.Serve("xlog", func(context.Context, *Request) *Response { received.Add(1); return Ok() })
	c := NewClient(net.Dial("xlog"))
	if err := c.Send(context.Background(), &Request{Type: MsgFeedBlock}); err != nil {
		t.Fatal(err)
	}
	if n := net.Sever(); n != 1 {
		t.Fatalf("Sever tore %d sends, want 1", n)
	}
	if err := c.Send(context.Background(), &Request{Type: MsgFeedBlock}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return received.Load() == 1 }, "the send after the sever")
	time.Sleep(60 * time.Millisecond)
	if got := received.Load(); got != 1 {
		t.Fatalf("%d sends delivered, want 1 (the severed one dropped)", got)
	}
}

// TestSelectorCallAllocs is the allocation contract for replica choice:
// routing through a Selector costs nothing on top of the Client call it
// makes.
func TestSelectorCallAllocs(t *testing.T) {
	testutil.SkipIfRace(t)
	net := NewInstantNetwork()
	ok := Ok()
	net.Serve("ps", func(context.Context, *Request) *Response { return ok })
	c := NewClient(net.Dial("ps"))
	sel := NewSelector(c)
	ctx := context.Background()
	req := &Request{Type: MsgGetPage}
	measure := func(call func(context.Context, *Request) (*Response, error)) float64 {
		return testing.AllocsPerRun(200, func() {
			if _, err := call(ctx, req); err != nil {
				t.Fatal(err)
			}
		})
	}
	client, selector := measure(c.Call), measure(sel.Call)
	t.Logf("Client.Call %.1f allocs/op, Selector.Call %.1f", client, selector)
	if selector > client {
		t.Fatalf("Selector.Call %.1f allocs/op, more than Client.Call's %.1f", selector, client)
	}
}

// TestUntracedHopAllocs is the allocation contract for the wire hop of an
// untraced request: checkVersion hands the handler the caller's context
// as it is, adding nothing.
func TestUntracedHopAllocs(t *testing.T) {
	testutil.SkipIfRace(t)
	ok := Ok()
	h := checkVersion(func(context.Context, *Request) *Response { return ok })
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req := &Request{Version: Version, Type: MsgGetPage}
	if avg := testing.AllocsPerRun(200, func() { h(ctx, req) }); avg != 0 {
		t.Fatalf("untraced hop: %.1f allocs/op, budget 0", avg)
	}
}
