package netmux

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"socrates/internal/obs"
	"socrates/internal/page"
	"socrates/internal/rbio"
	"socrates/internal/socerr"
)

// startMuxServer runs an RBIO TCP server with the given handler and
// returns its address.
func startMuxServer(t *testing.T, h rbio.Handler) string {
	t.Helper()
	srv, err := rbio.ServeTCP("127.0.0.1:0", h)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return srv.Addr()
}

func dialMux(t *testing.T, addr string) *MuxConn {
	t.Helper()
	conn, err := DialTCP(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	mc, ok := conn.(*MuxConn)
	if !ok {
		t.Fatalf("DialTCP returned %T, want *MuxConn", conn)
	}
	t.Cleanup(func() { _ = mc.Close() })
	return mc
}

// TestMuxOutOfOrderResponses proves the demux pairs responses to callers
// by request ID, not arrival order: a slow early request must not block
// (or steal the response of) a fast later one.
func TestMuxOutOfOrderResponses(t *testing.T) {
	addr := startMuxServer(t, func(_ context.Context, req *rbio.Request) *rbio.Response {
		if req.LSN == 1 { // the slow request
			time.Sleep(100 * time.Millisecond)
		}
		resp := rbio.Ok()
		resp.LSN = req.LSN + 100
		return resp
	})
	mc := dialMux(t, addr)

	var slowDone, fastDone time.Time
	var wg sync.WaitGroup
	wg.Add(2)
	var slowErr, fastErr error
	go func() {
		defer wg.Done()
		resp, err := mc.Call(context.Background(), &rbio.Request{Version: rbio.Version, Type: rbio.MsgPing, LSN: 1})
		slowDone = time.Now()
		if err != nil {
			slowErr = err
		} else if resp.LSN != 101 {
			slowErr = fmt.Errorf("slow got LSN %d, want 101", resp.LSN)
		}
	}()
	time.Sleep(10 * time.Millisecond) // ensure the slow call is in flight first
	go func() {
		defer wg.Done()
		resp, err := mc.Call(context.Background(), &rbio.Request{Version: rbio.Version, Type: rbio.MsgPing, LSN: 2})
		fastDone = time.Now()
		if err != nil {
			fastErr = err
		} else if resp.LSN != 102 {
			fastErr = fmt.Errorf("fast got LSN %d, want 102", resp.LSN)
		}
	}()
	wg.Wait()
	if slowErr != nil || fastErr != nil {
		t.Fatalf("slowErr=%v fastErr=%v", slowErr, fastErr)
	}
	if !fastDone.Before(slowDone) {
		t.Fatalf("fast call finished at %v, after slow at %v: head-of-line blocking", fastDone, slowDone)
	}
}

// TestMuxTimeoutDoesNotPoisonConn: a timed-out call costs the caller its
// call and nothing else — the late response is dropped by request ID and
// the SAME connection keeps working.
func TestMuxTimeoutDoesNotPoisonConn(t *testing.T) {
	var slow atomic.Bool
	slow.Store(true)
	addr := startMuxServer(t, func(_ context.Context, req *rbio.Request) *rbio.Response {
		if slow.Load() && req.LSN == 7 {
			time.Sleep(80 * time.Millisecond) // outlives the caller's deadline
		}
		resp := rbio.Ok()
		resp.LSN = req.LSN
		return resp
	})
	m := rbio.NewMetrics(obs.Plane{Metrics: obs.NewRegistry()})
	conn, err := DialTCP(addr, m)
	if err != nil {
		t.Fatal(err)
	}
	mc := conn.(*MuxConn)
	defer mc.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := mc.Call(ctx, &rbio.Request{Version: rbio.Version, Type: rbio.MsgPing, LSN: 7}); !errors.Is(err, socerr.ErrTimeout) {
		t.Fatalf("err = %v, want socerr.ErrTimeout", err)
	}
	if !mc.Healthy() {
		t.Fatal("connection reported unhealthy after a mere timeout")
	}
	// The same connection — no redial — must serve the next call.
	resp, err := mc.Call(context.Background(), &rbio.Request{Version: rbio.Version, Type: rbio.MsgPing, LSN: 8})
	if err != nil {
		t.Fatalf("call on the same conn after timeout failed: %v", err)
	}
	if resp.LSN != 8 {
		t.Fatalf("resp.LSN = %d, want 8 (a late response paired with the wrong call?)", resp.LSN)
	}
	// Eventually the abandoned response arrives and is dropped by ID.
	deadline := time.Now().Add(2 * time.Second)
	for m.LateDrops.Value() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if m.LateDrops.Value() == 0 {
		t.Fatal("late response was never dropped by request ID")
	}
	if mc.Pending() != 0 {
		t.Fatalf("%d waiters leaked", mc.Pending())
	}
}

// TestMuxTornFrameKillsConn: unlike a timeout, genuinely torn framing
// must still poison the connection — waiters fail, later calls fail
// fast.
func TestMuxTornFrameKillsConn(t *testing.T) {
	addr := startMuxServer(t, func(_ context.Context, _ *rbio.Request) *rbio.Response {
		return rbio.Ok()
	})
	mc := dialMux(t, addr)
	// Sabotage from the client side: close the underlying socket so the
	// demux loop sees a read error mid-stream.
	_ = mc.conn.Close()
	deadline := time.Now().Add(2 * time.Second)
	for mc.Healthy() && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if mc.Healthy() {
		t.Fatal("connection still healthy after its stream died")
	}
	if _, err := mc.Call(context.Background(), &rbio.Request{Version: rbio.Version, Type: rbio.MsgPing}); !errors.Is(err, rbio.ErrUnavailable) {
		t.Fatalf("err = %v, want rbio.ErrUnavailable", err)
	}
}

// TestMuxConcurrentCallsShareOneConn hammers one connection from many
// goroutines with interleaved cancellations — run under -race this is
// the demux-vs-cancellation fault-injection test.
func TestMuxConcurrentCallsShareOneConn(t *testing.T) {
	addr := startMuxServer(t, func(_ context.Context, req *rbio.Request) *rbio.Response {
		if req.LSN%7 == 0 {
			time.Sleep(time.Duration(req.LSN%5) * time.Millisecond)
		}
		resp := rbio.Ok()
		resp.LSN = req.LSN * 2
		return resp
	})
	mc := dialMux(t, addr)
	var wg sync.WaitGroup
	errs := make(chan error, 256)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 16; i++ {
				lsn := uint64(g*100 + i + 1)
				ctx := context.Background()
				var cancel context.CancelFunc = func() {}
				if i%5 == 4 {
					// Interleave aggressive cancellations.
					ctx, cancel = context.WithTimeout(ctx, time.Duration(i%3)*time.Millisecond)
				}
				resp, err := mc.Call(ctx, &rbio.Request{Version: rbio.Version, Type: rbio.MsgPing, LSN: page.LSN(lsn)})
				cancel()
				if err != nil {
					if errors.Is(err, socerr.ErrTimeout) || errors.Is(err, context.Canceled) {
						continue // expected for the cancelled fraction
					}
					errs <- err
					return
				}
				if uint64(resp.LSN) != lsn*2 {
					errs <- fmt.Errorf("cross-paired response: sent %d got %d", lsn, resp.LSN)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if !mc.Healthy() {
		t.Fatal("connection died under concurrent load")
	}
}

// TestMuxExpiredCallerLeavesSharedConnAlone: a caller whose deadline passed
// while it queued for the write mutex has put nothing on the stream, so it
// times out alone — the connection, shared with every other caller, lives.
func TestMuxExpiredCallerLeavesSharedConnAlone(t *testing.T) {
	addr := startMuxServer(t, func(_ context.Context, req *rbio.Request) *rbio.Response {
		resp := rbio.Ok()
		resp.LSN = req.LSN
		return resp
	})
	mc := dialMux(t, addr)

	mc.writeMu.Lock() // another caller's frame is going out
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := mc.Call(ctx, &rbio.Request{Version: rbio.Version, Type: rbio.MsgPing, LSN: 1})
		done <- err
	}()
	<-ctx.Done()
	mc.writeMu.Unlock()

	if err := <-done; !errors.Is(err, socerr.ErrTimeout) {
		t.Fatalf("err = %v, want socerr.ErrTimeout", err)
	}
	if !mc.Healthy() {
		t.Fatal("a caller that wrote nothing tore the shared connection down")
	}
	resp, err := mc.Call(context.Background(), &rbio.Request{Version: rbio.Version, Type: rbio.MsgPing, LSN: 2})
	if err != nil || resp.LSN != 2 {
		t.Fatalf("next call on the same conn: resp=%+v err=%v", resp, err)
	}
	if mc.Pending() != 0 {
		t.Fatalf("%d waiters leaked", mc.Pending())
	}
}

// TestMuxChaosCallsVsCloseVsCancel is the mux-level fault-injection
// test: hammer one MuxConn while a chaos goroutine closes it mid-flight
// and a fraction of callers carry aggressive deadlines. Run under -race
// this exercises demux vs cancellation vs teardown concurrently. Calls may
// fail with ErrUnavailable (torn mid-flight) or time out — what must NOT
// happen is a wrong pairing, a hang, a leaked waiter, or a race.
func TestMuxChaosCallsVsCloseVsCancel(t *testing.T) {
	addr := startMuxServer(t, func(_ context.Context, req *rbio.Request) *rbio.Response {
		if req.LSN%3 == 0 {
			time.Sleep(time.Millisecond)
		}
		resp := rbio.Ok()
		resp.LSN = req.LSN + 1
		return resp
	})
	for round := 0; round < 4; round++ {
		mc := dialMux(t, addr)
		var wrongPairings, torn atomic.Int64
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
					resp, err := mc.Call(ctx, &rbio.Request{Version: rbio.Version, Type: rbio.MsgPing, LSN: page.LSN(lsn)})
					cancel()
					switch {
					case errors.Is(err, rbio.ErrUnavailable):
						torn.Add(1)
					case err != nil:
						// a cancelled caller's loss is expected
					case uint64(resp.LSN) != lsn+1:
						wrongPairings.Add(1)
					}
				}
			}(g)
		}
		time.Sleep(time.Duration(2+round) * time.Millisecond)
		_ = mc.Close()
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("round %d: callers hung after the conn closed mid-flight", round)
		}
		if n := wrongPairings.Load(); n != 0 {
			t.Fatalf("round %d: %d cross-paired responses under chaos", round, n)
		}
		if torn.Load() == 0 {
			t.Fatalf("round %d: closing the conn failed no call", round)
		}
		if mc.Pending() != 0 {
			t.Fatalf("round %d: %d waiters leaked", round, mc.Pending())
		}
	}
}
