package netmux

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"socrates/internal/obs"
	"socrates/internal/page"
	"socrates/internal/rbio"
	"socrates/internal/socerr"
)

// tcpDialer is the production Dialer over DialTCP with shared metrics.
func tcpDialer(m *Metrics) Dialer {
	return func(addr string) (rbio.Conn, error) { return DialTCP(addr, m) }
}

// TestPoolBackpressureFailFast: once MaxInflight slots are taken and
// MaxQueue callers wait, the next caller must fail IMMEDIATELY with
// socerr.ErrBackpressure — not queue unboundedly, not hang.
func TestPoolBackpressureFailFast(t *testing.T) {
	release := make(chan struct{})
	addr := startMuxServer(t, func(context.Context, *rbio.Request) *rbio.Response {
		<-release
		return rbio.Ok()
	})

	m := NewMetrics(obs.NewRegistry())
	p := NewPool(addr, tcpDialer(m), Options{Conns: 1, MaxInflight: 2, MaxQueue: 1, Metrics: m})
	defer p.Close()

	// Fill both in-flight slots.
	started := make(chan struct{}, 3)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			started <- struct{}{}
			_, _ = p.Call(context.Background(), &rbio.Request{Version: rbio.Version, Type: rbio.MsgPing})
		}()
	}
	<-started
	<-started
	waitFor(t, func() bool { return m.Inflight.Value() == 2 }, "2 calls in flight")

	// Fill the single queue slot.
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _ = p.Call(context.Background(), &rbio.Request{Version: rbio.Version, Type: rbio.MsgPing})
	}()
	waitFor(t, func() bool { return p.waiters.Load() == 1 }, "1 caller queued")

	// The next caller must be rejected fast.
	start := time.Now()
	_, err := p.Call(context.Background(), &rbio.Request{Version: rbio.Version, Type: rbio.MsgPing})
	if !errors.Is(err, socerr.ErrBackpressure) {
		t.Fatalf("err = %v, want socerr.ErrBackpressure", err)
	}
	if d := time.Since(start); d > 500*time.Millisecond {
		t.Fatalf("backpressure rejection took %v, want fail-fast", d)
	}
	// Backpressure must NOT look like unavailability — the client layer
	// would retry it and amplify the overload.
	if errors.Is(err, rbio.ErrUnavailable) {
		t.Fatal("ErrBackpressure matches rbio.ErrUnavailable; client would retry into the overload")
	}
	if m.Backpressure.Value() == 0 {
		t.Fatal("backpressure trip not counted")
	}
	close(release) // let the parked calls finish
	wg.Wait()
}

// TestPoolQueuedCallerHonorsContext: a caller parked in the wait queue
// must abandon its spot when its ctx expires.
func TestPoolQueuedCallerHonorsContext(t *testing.T) {
	release := make(chan struct{})
	addr := startMuxServer(t, func(context.Context, *rbio.Request) *rbio.Response {
		<-release
		return rbio.Ok()
	})

	p := NewPool(addr, tcpDialer(nil), Options{Conns: 1, MaxInflight: 1, MaxQueue: 4})
	defer p.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _ = p.Call(context.Background(), &rbio.Request{Version: rbio.Version, Type: rbio.MsgPing})
	}()
	waitFor(t, func() bool { return p.ConnCount() == 1 }, "first call dialed")

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Millisecond)
	defer cancel()
	_, err := p.Call(ctx, &rbio.Request{Version: rbio.Version, Type: rbio.MsgPing})
	if !errors.Is(err, socerr.ErrTimeout) {
		t.Fatalf("err = %v, want socerr.ErrTimeout", err)
	}
	waitFor(t, func() bool { return p.waiters.Load() == 0 }, "queue drained after ctx expiry")
	close(release) // let the parked call finish
	wg.Wait()
}

// TestPoolEvictsAndRedialsAfterSever: SeverAll (the chaos partition)
// kills every pooled conn; the next calls must lazily redial and
// succeed, and the dial/eviction counters must show it.
func TestPoolEvictsAndRedialsAfterSever(t *testing.T) {
	addr := startMuxServer(t, func(_ context.Context, req *rbio.Request) *rbio.Response {
		resp := rbio.Ok()
		resp.LSN = req.LSN
		return resp
	})
	m := NewMetrics(obs.NewRegistry())
	p := NewPool(addr, tcpDialer(m), Options{Conns: 2, MaxInflight: 8, MaxQueue: 8, Metrics: m})
	defer p.Close()

	for i := 0; i < 4; i++ {
		if _, err := p.Call(context.Background(), &rbio.Request{Version: rbio.Version, Type: rbio.MsgPing, LSN: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if got := p.ConnCount(); got != 2 {
		t.Fatalf("ConnCount = %d, want 2", got)
	}
	dialsBefore := m.Dials.Value()

	if n := p.SeverAll(); n != 2 {
		t.Fatalf("SeverAll severed %d conns, want 2", n)
	}
	if got := p.ConnCount(); got != 0 {
		t.Fatalf("ConnCount after sever = %d, want 0", got)
	}

	// Calls after the partition heal by redialing.
	for i := 0; i < 4; i++ {
		if _, err := p.Call(context.Background(), &rbio.Request{Version: rbio.Version, Type: rbio.MsgPing, LSN: 2}); err != nil {
			t.Fatalf("call %d after sever: %v", i, err)
		}
	}
	if m.Dials.Value() <= dialsBefore {
		t.Fatal("no redial after sever")
	}
	if m.Evictions.Value() == 0 {
		t.Fatal("sever not counted as evictions")
	}
}

// TestPoolEvictsUnhealthyConn: a conn whose stream died (torn frame)
// reports !Healthy(); the pool must replace it on the next round-robin
// visit rather than hand it to a caller.
func TestPoolEvictsUnhealthyConn(t *testing.T) {
	addr := startMuxServer(t, func(_ context.Context, _ *rbio.Request) *rbio.Response {
		return rbio.Ok()
	})
	m := NewMetrics(obs.NewRegistry())
	p := NewPool(addr, tcpDialer(m), Options{Conns: 1, MaxInflight: 4, MaxQueue: 4, Metrics: m})
	defer p.Close()

	if _, err := p.Call(context.Background(), &rbio.Request{Version: rbio.Version, Type: rbio.MsgPing}); err != nil {
		t.Fatal(err)
	}
	// Tear the underlying socket out from under the pooled MuxConn.
	p.mu.Lock()
	mc := p.slots[0].conn.(*MuxConn)
	p.mu.Unlock()
	_ = mc.conn.Close()
	waitFor(t, func() bool { return !mc.Healthy() }, "conn noticed its stream died")

	if _, err := p.Call(context.Background(), &rbio.Request{Version: rbio.Version, Type: rbio.MsgPing}); err != nil {
		t.Fatalf("call after unhealthy eviction: %v", err)
	}
	if m.Evictions.Value() == 0 {
		t.Fatal("unhealthy conn was not evicted")
	}
	p.mu.Lock()
	cur := p.slots[0].conn
	p.mu.Unlock()
	if cur == rbio.Conn(mc) {
		t.Fatal("pool still holds the dead conn")
	}
}

// TestPoolClosedFailsFast: calls after Close fail with socerr.ErrClosed.
func TestPoolClosedFailsFast(t *testing.T) {
	addr := startMuxServer(t, func(_ context.Context, _ *rbio.Request) *rbio.Response {
		return rbio.Ok()
	})
	p := NewPool(addr, tcpDialer(nil), Options{})
	if _, err := p.Call(context.Background(), &rbio.Request{Version: rbio.Version, Type: rbio.MsgPing}); err != nil {
		t.Fatal(err)
	}
	_ = p.Close()
	if _, err := p.Call(context.Background(), &rbio.Request{Version: rbio.Version, Type: rbio.MsgPing}); !errors.Is(err, socerr.ErrClosed) {
		t.Fatalf("err = %v, want socerr.ErrClosed", err)
	}
}

// TestPoolChaosCallsVsSeverVsCancel is the pool-level fault-injection
// test: hammer the pool while a chaos goroutine severs all conns and a
// fraction of callers carry aggressive deadlines. Run under -race this
// exercises demux vs cancellation vs eviction concurrently. Calls may
// fail with ErrUnavailable (severed mid-flight) — what must NOT happen
// is a wrong pairing, a hang, or a race.
func TestPoolChaosCallsVsSeverVsCancel(t *testing.T) {
	addr := startMuxServer(t, func(_ context.Context, req *rbio.Request) *rbio.Response {
		resp := rbio.Ok()
		resp.LSN = req.LSN + 1
		return resp
	})
	m := NewMetrics(obs.NewRegistry())
	p := NewPool(addr, tcpDialer(m), Options{Conns: 3, MaxInflight: 32, MaxQueue: 64, Metrics: m})
	defer p.Close()

	stop := make(chan struct{})
	var chaosWG sync.WaitGroup
	chaosWG.Add(1)
	go func() {
		defer chaosWG.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(5 * time.Millisecond):
				p.SeverAll()
			}
		}
	}()

	var wrongPairings atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 32; i++ {
				lsn := uint64(g*1000 + i + 1)
				ctx := context.Background()
				cancel := context.CancelFunc(func() {})
				if i%4 == 3 {
					ctx, cancel = context.WithTimeout(ctx, time.Duration(i%3)*time.Millisecond)
				}
				resp, err := p.Call(ctx, &rbio.Request{Version: rbio.Version, Type: rbio.MsgPing, LSN: page.LSN(lsn)})
				cancel()
				if err != nil {
					continue // sever/cancel losses are expected; pairing errors are not
				}
				if uint64(resp.LSN) != lsn+1 {
					wrongPairings.Add(1)
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	chaosWG.Wait()
	if n := wrongPairings.Load(); n != 0 {
		t.Fatalf("%d cross-paired responses under chaos", n)
	}
	// After the chaos stops the pool must still serve.
	if _, err := p.Call(context.Background(), &rbio.Request{Version: rbio.Version, Type: rbio.MsgPing, LSN: 1}); err != nil {
		t.Fatalf("pool dead after chaos: %v", err)
	}
}

// waitFor polls cond for up to 2s.
func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
