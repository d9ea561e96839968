package rbio

import (
	"context"
	"encoding/hex"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"socrates/internal/obs"
	"socrates/internal/page"
	"socrates/internal/testutil/spans"
)

func TestRequestCodecRoundTrip(t *testing.T) {
	r := &Request{
		Version: Version, Type: MsgGetPage, Page: 42, LSN: 99,
		Partition: -1, MaxBytes: 1 << 20, Consumer: "secondary-1",
		Payload: []byte{1, 2, 3},
	}
	got, err := DecodeRequest(AppendRequest(nil, r))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, r) {
		t.Fatalf("got %+v, want %+v", got, r)
	}
}

func TestResponseCodecRoundTrip(t *testing.T) {
	r := &Response{version: Version, Status: statusRetry, Error: "seeding",
		LSN: 1234, Payload: []byte("blockdata")}
	got, err := DecodeResponse(AppendResponse(nil, r))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, r) {
		t.Fatalf("got %+v, want %+v", got, r)
	}
}

func TestCodecTruncation(t *testing.T) {
	req := AppendRequest(nil, &Request{Type: MsgPing, Consumer: "c", Payload: []byte("xy")})
	for cut := 0; cut < len(req); cut++ {
		if _, err := DecodeRequest(req[:cut]); err == nil {
			t.Fatalf("request truncation at %d undetected", cut)
		}
	}
	resp := AppendResponse(nil, &Response{Status: StatusOK, Error: "e", Payload: []byte("z")})
	for cut := 0; cut < len(resp); cut++ {
		if _, err := DecodeResponse(resp[:cut]); err == nil {
			t.Fatalf("response truncation at %d undetected", cut)
		}
	}
}

// Property: request codec round-trips arbitrary field values.
func TestRequestCodecProperty(t *testing.T) {
	f := func(ty uint8, pg uint64, lsn uint64, part int32, mb int32, consumer string, payload []byte) bool {
		if len(consumer) > 1000 {
			consumer = consumer[:1000]
		}
		r := &Request{Version: Version, Type: msgType(ty), Page: page.ID(pg),
			LSN: page.LSN(lsn), Partition: part, MaxBytes: mb, Consumer: consumer}
		if len(payload) > 0 {
			r.Payload = payload
		}
		got, err := DecodeRequest(AppendRequest(nil, r))
		return err == nil && reflect.DeepEqual(got, r)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestCodecCarriesTraceHeader(t *testing.T) {
	r := &Request{Version: Version, Type: MsgGetPage, traceID: 0xdeadbeef, spanID: 42,
		Page: 9, LSN: 100, Consumer: "sec", Payload: []byte("p")}
	got, err := DecodeRequest(AppendRequest(nil, r))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, r) {
		t.Fatalf("got %+v, want %+v", got, r)
	}
}

// TestWireLayoutGolden locks the message layout: the literals are what the
// v3 encoder produced at commit e145259, so a change to either encoder
// that moves a byte fails here.
func TestWireLayoutGolden(t *testing.T) {
	req := &Request{Version: 3, Type: MsgGetPage, traceID: 0x1122334455667788, spanID: 0x99aabbccddeeff00,
		Page: 4711, LSN: 123456, Partition: -1, MaxBytes: 1 << 20, Consumer: "secondary-1",
		Payload: []byte{0xde, 0xad, 0xbe, 0xef}}
	const wantReq = "030001887766554433221100ffeeddccbbaa99671200000000000040e2010000000000" +
		"ffffffff000010000b007365636f6e646172792d3104000000deadbeef"
	if got := hex.EncodeToString(AppendRequest(nil, req)); got != wantReq {
		t.Fatalf("request layout moved:\n got %s\nwant %s", got, wantReq)
	}
	// Status 5 is a retired number: the codec carries the byte whatever it is.
	resp := &Response{version: 3, Status: 5, Error: "page 81 behind", LSN: 900,
		Payload: []byte("prefix")}
	const wantResp = "03000584030000000000000e007061676520383120626568696e6406000000707265666978"
	if got := hex.EncodeToString(AppendResponse(nil, resp)); got != wantResp {
		t.Fatalf("response layout moved:\n got %s\nwant %s", got, wantResp)
	}
}

func TestResponseErr(t *testing.T) {
	if Ok().Err() != nil {
		t.Fatal("OK should map to nil error")
	}
	if !errors.Is(Retryf("x").Err(), errRetryable) {
		t.Fatal("retry should map to ErrRetryable")
	}
	vr := &Response{Status: StatusVersion}
	if !errors.Is(vr.Err(), errVersion) {
		t.Fatal("version should map to ErrVersion")
	}
	if Errorf("boom").Err() == nil {
		t.Fatal("error should map to non-nil")
	}
}

func TestResponseErrorTyped(t *testing.T) {
	resp := &Response{Status: statusRetry, Error: "page 9 seeding"}
	var re *responseError
	if !errors.As(resp.Err(), &re) {
		t.Fatal("Err() should be a *ResponseError")
	}
	if re.status != statusRetry || re.msg != "page 9 seeding" {
		t.Fatalf("re = %+v", re)
	}
	if !errors.Is(resp.Err(), errRetryable) {
		t.Fatal("typed error should still match the sentinel")
	}
}

func TestInprocCallRoundTrip(t *testing.T) {
	net := NewInstantNetwork()
	net.Serve("ps-0", func(_ context.Context, req *Request) *Response {
		if req.Type != MsgGetPage || req.Page != 7 {
			return Errorf("unexpected request")
		}
		resp := Ok()
		resp.LSN = 55
		resp.Payload = []byte("page-image")
		return resp
	})
	c := NewClient(net.Dial("ps-0"))
	resp, err := c.Call(context.Background(), &Request{Type: MsgGetPage, Page: 7})
	if err != nil {
		t.Fatal(err)
	}
	if resp.LSN != 55 || string(resp.Payload) != "page-image" {
		t.Fatalf("resp %+v", resp)
	}
}

func TestInprocVersionEnforcement(t *testing.T) {
	net := NewInstantNetwork()
	var served atomic.Int32
	net.Serve("x", func(context.Context, *Request) *Response {
		served.Add(1)
		return Ok()
	})
	conn := net.Dial("x")
	for _, v := range []uint16{0, 1, 2, 77} {
		resp, err := conn.Call(context.Background(), &Request{Version: v, Type: MsgPing})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Status != StatusVersion || resp.version != Version {
			t.Fatalf("v%d caller: status = %v from v%d, want version mismatch from v%d",
				v, resp.Status, resp.version, Version)
		}
	}
	if served.Load() != 0 {
		t.Fatalf("handler reached by %d mismatched requests", served.Load())
	}
}

// flakyConn fails its first Call as an unreachable endpoint would, answers
// the rest OK, and keeps each request as it arrived.
type flakyConn struct {
	Conn
	seen []Request
}

func (c *flakyConn) Call(_ context.Context, req *Request) (*Response, error) {
	c.seen = append(c.seen, *req)
	if len(c.seen) == 1 {
		return nil, ErrUnavailable
	}
	return Ok(), nil
}

// A failed first contact changes nothing about what goes out next.
func TestRetriedRequestKeepsVersionAndTrace(t *testing.T) {
	conn := &flakyConn{}
	c := NewClient(conn, withRetries(3), withBackoff(0))
	ctx := obs.ContextWithSpan(context.Background(), obs.SpanContext{TraceID: 7, SpanID: 8})
	if _, err := c.Call(ctx, &Request{Type: MsgGetPage}); err != nil {
		t.Fatal(err)
	}
	if len(conn.seen) != 2 {
		t.Fatalf("%d wire attempts, want 2", len(conn.seen))
	}
	if r := conn.seen[1]; r.Version != Version || r.traceID != 7 || r.spanID != 8 {
		t.Fatalf("retry went out as v%d trace %d/%d, want v%d trace 7/8", r.Version, r.traceID, r.spanID, Version)
	}
}

func TestHandlerSeesFrameTraceNotCallerValues(t *testing.T) {
	net := NewInstantNetwork()
	var seen obs.SpanContext
	net.Serve("ps", func(ctx context.Context, _ *Request) *Response {
		seen = obs.SpanFromContext(ctx)
		return Ok()
	})
	c := NewClient(net.Dial("ps"))
	want := obs.SpanContext{TraceID: 21, SpanID: 34}
	ctx := obs.ContextWithSpan(context.Background(), want)
	if _, err := c.Call(ctx, &Request{Type: MsgPing}); err != nil {
		t.Fatal(err)
	}
	if seen != want {
		t.Fatalf("handler saw %+v, want %+v", seen, want)
	}
}

// TestHopKeepsServerWaitsOnTheServer is transport parity for waits: a
// handler's waits, whether recorded under the span it joined from the
// frame or under its raw context, stay on the server side of the hop on
// the in-process fabric exactly as over TCP, where nothing else crosses.
func TestHopKeepsServerWaitsOnTheServer(t *testing.T) {
	tr := obs.NewTracer()
	rec := obs.NewWaitSet().Tier(obs.TierXLOG)
	net := NewInstantNetwork()
	net.Serve("ps", func(ctx context.Context, _ *Request) *Response {
		jctx, sp := tr.JoinSpan(ctx, obs.TierPageServer, "pageserver.getpage")
		defer sp.End()
		rec.Observe(jctx, obs.WaitXLOGFeed, 3*time.Millisecond)
		rec.Observe(ctx, obs.WaitXLOGFeed, 3*time.Millisecond)
		return Ok()
	})
	c := NewClient(net.Dial("ps"))
	ctx, caller := tr.StartSpan(context.Background(), obs.TierCompute, "getpage")
	if _, err := c.Call(ctx, &Request{Type: MsgGetPage}); err != nil {
		t.Fatal(err)
	}
	caller.End()
	tree := tr.Trace(caller.Context().TraceID)
	if got := spans.WaitTotals(tree)["xlog.feed"]; got != 0 {
		t.Fatalf("caller span took %v of the handler's xlog.feed:\n%s", got, tree.Format())
	}
	server := spans.Find(tree, "pageserver.getpage")
	if got := spans.WaitTotals(server)["xlog.feed"]; got != 3*time.Millisecond {
		t.Fatalf("joined span xlog.feed = %v, want 3ms:\n%s", got, tree.Format())
	}
}

func TestCallHonorsCancelledContext(t *testing.T) {
	net := NewInstantNetwork()
	net.Serve("s", func(context.Context, *Request) *Response { return Ok() })
	c := NewClient(net.Dial("s"))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Call(ctx, &Request{Type: MsgPing}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestInprocUnavailableAndRecovery(t *testing.T) {
	net := NewInstantNetwork()
	c := NewClient(net.Dial("ghost"), withRetries(2), withBackoff(0))
	if _, err := c.Call(context.Background(), &Request{Type: MsgPing}); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("err = %v, want ErrUnavailable", err)
	}
	// Node comes up under the same address; the old conn reaches it.
	net.Serve("ghost", func(context.Context, *Request) *Response { return Ok() })
	if _, err := c.Call(context.Background(), &Request{Type: MsgPing}); err != nil {
		t.Fatalf("after serve: %v", err)
	}
}

func TestClientRetriesRetryableStatus(t *testing.T) {
	net := NewInstantNetwork()
	var calls atomic.Int32
	net.Serve("s", func(context.Context, *Request) *Response {
		if calls.Add(1) < 3 {
			return Retryf("not ready")
		}
		return Ok()
	})
	c := NewClient(net.Dial("s"), withRetries(5), withBackoff(0))
	resp, err := c.Call(context.Background(), &Request{Type: MsgPing})
	if err != nil || resp.Status != StatusOK {
		t.Fatalf("resp=%+v err=%v", resp, err)
	}
	if calls.Load() != 3 {
		t.Fatalf("calls = %d, want 3", calls.Load())
	}
}

func TestClientExhaustsRetries(t *testing.T) {
	net := NewInstantNetwork()
	net.Serve("s", func(context.Context, *Request) *Response { return Retryf("never ready") })
	c := NewClient(net.Dial("s"), withRetries(3), withBackoff(0))
	_, err := c.Call(context.Background(), &Request{Type: MsgPing})
	if !errors.Is(err, errRetryable) {
		t.Fatalf("err = %v, want ErrRetryable", err)
	}
}

// A terminal status — a peer's version refusal included — costs one wire
// attempt and reaches the caller as the response it is.
func TestClientDoesNotRetryTerminalError(t *testing.T) {
	for _, terminal := range []*Response{Errorf("terminal"), {Status: StatusVersion, Error: "server speaks v2"}} {
		net := NewInstantNetwork()
		var calls atomic.Int32
		net.Serve("s", func(context.Context, *Request) *Response {
			calls.Add(1)
			return terminal
		})
		c := NewClient(net.Dial("s"), withRetries(5), withBackoff(0))
		resp, err := c.Call(context.Background(), &Request{Type: MsgPing})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Status != terminal.Status || calls.Load() != 1 {
			t.Fatalf("status=%v calls=%d, want %v after 1 call", resp.Status, calls.Load(), terminal.Status)
		}
		if terminal.Status == StatusVersion && !errors.Is(resp.Err(), errVersion) {
			t.Fatalf("resp.Err() = %v, want ErrVersion", resp.Err())
		}
	}
}

func TestLossySendDrops(t *testing.T) {
	net := NewInstantNetwork()
	var received atomic.Int32
	net.Serve("xlog", func(context.Context, *Request) *Response {
		received.Add(1)
		return Ok()
	})
	net.SetLoss(1.0) // drop everything
	c := NewClient(net.Dial("xlog"))
	for i := 0; i < 20; i++ {
		if err := c.Send(context.Background(), &Request{Type: MsgFeedBlock}); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(10 * time.Millisecond)
	if received.Load() != 0 {
		t.Fatalf("received %d sends despite 100%% loss", received.Load())
	}
	net.SetLoss(0)
	_ = c.Send(context.Background(), &Request{Type: MsgFeedBlock})
	deadline := time.Now().Add(time.Second)
	for received.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if received.Load() != 1 {
		t.Fatal("send after loss cleared did not arrive")
	}
}

func TestSendToUnknownAddrFails(t *testing.T) {
	net := NewInstantNetwork()
	if err := net.Dial("nobody").Send(context.Background(), &Request{Type: MsgPing}); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("err = %v", err)
	}
}

func TestUnserveSimulatesCrash(t *testing.T) {
	net := NewInstantNetwork()
	net.Serve("n", func(context.Context, *Request) *Response { return Ok() })
	c := NewClient(net.Dial("n"), withRetries(1), withBackoff(0))
	if _, err := c.Call(context.Background(), &Request{Type: MsgPing}); err != nil {
		t.Fatal(err)
	}
	net.Unserve("n")
	if _, err := c.Call(context.Background(), &Request{Type: MsgPing}); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("err = %v", err)
	}
}

func TestSelectorPrefersFasterEndpoint(t *testing.T) {
	net := NewInstantNetwork()
	var fastCalls, slowCalls atomic.Int64
	net.Serve("fast", func(context.Context, *Request) *Response {
		fastCalls.Add(1)
		return Ok()
	})
	net.Serve("slow", func(context.Context, *Request) *Response {
		slowCalls.Add(1)
		time.Sleep(3 * time.Millisecond)
		return Ok()
	})
	sel := NewSelector(NewClient(net.Dial("fast")), NewClient(net.Dial("slow")))
	call := func() {
		t.Helper()
		if _, err := sel.Call(context.Background(), &Request{Type: MsgPing}); err != nil {
			t.Fatal(err)
		}
	}
	// Warm both EWMAs.
	for i := 0; i < 4; i++ {
		call()
	}
	if slowCalls.Load() == 0 {
		t.Fatal("the unprobed slow endpoint was never tried")
	}
	fast0, slow0 := fastCalls.Load(), slowCalls.Load()
	call()
	if fastCalls.Load() != fast0+1 || slowCalls.Load() != slow0 {
		t.Fatalf("a warm selector called fast %d and slow %d times, want fast once",
			fastCalls.Load()-fast0, slowCalls.Load()-slow0)
	}
}

func TestSelectorFailsOver(t *testing.T) {
	net := NewInstantNetwork()
	net.Serve("up", func(context.Context, *Request) *Response { return Ok() })
	dead := NewClient(net.Dial("down"), withRetries(1), withBackoff(0))
	up := NewClient(net.Dial("up"), withRetries(1), withBackoff(0))
	sel := NewSelector(dead, up)
	resp, err := sel.Call(context.Background(), &Request{Type: MsgPing})
	if err != nil || resp.Status != StatusOK {
		t.Fatalf("failover failed: %v", err)
	}
}

func TestSelectorEmpty(t *testing.T) {
	sel := NewSelector()
	if _, err := sel.Call(context.Background(), &Request{Type: MsgPing}); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("err = %v", err)
	}
	net := NewInstantNetwork()
	net.Serve("x", func(context.Context, *Request) *Response { return Ok() })
	sel.Add(NewClient(net.Dial("x")))
	if _, err := sel.Call(context.Background(), &Request{Type: MsgPing}); err != nil {
		t.Fatalf("Add failed: %v", err)
	}
}

func TestEWMAPenalizesFailures(t *testing.T) {
	net := NewInstantNetwork()
	c := NewClient(net.Dial("gone"), withRetries(1), withBackoff(0))
	_, _ = c.Call(context.Background(), &Request{Type: MsgPing})
	if c.ewmaLatency() < 100*time.Millisecond {
		t.Fatalf("failed endpoint EWMA = %v, want heavy penalty", c.ewmaLatency())
	}
}
