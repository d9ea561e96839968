package rbio_test

import (
	"context"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"socrates/internal/netmux"
	"socrates/internal/page"
	"socrates/internal/rbio"
)

// serveTCP starts an RBIO TCP server for the test and returns its address.
func serveTCP(t *testing.T, h rbio.Handler) string {
	t.Helper()
	srv, err := rbio.ServeTCP("127.0.0.1:0", h)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return srv.Addr()
}

// dialTCP connects to addr the way every client does, through netmux.
func dialTCP(t *testing.T, addr string) rbio.Conn {
	t.Helper()
	conn, err := netmux.DialTCP(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	return conn
}

func TestTCPRoundTrip(t *testing.T) {
	addr := serveTCP(t, func(_ context.Context, req *rbio.Request) *rbio.Response {
		resp := rbio.Ok()
		resp.LSN = req.LSN + 1
		resp.Payload = append([]byte("echo:"), req.Payload...)
		return resp
	})
	c := rbio.NewClient(dialTCP(t, addr))
	resp, err := c.Call(context.Background(), &rbio.Request{Type: rbio.MsgGetPage, LSN: 10, Payload: []byte("hi")})
	if err != nil {
		t.Fatal(err)
	}
	if resp.LSN != 11 || string(resp.Payload) != "echo:hi" {
		t.Fatalf("resp %+v", resp)
	}
}

func TestTCPOnewayFrame(t *testing.T) {
	fed := make(chan struct{}, 1)
	addr := serveTCP(t, func(_ context.Context, req *rbio.Request) *rbio.Response {
		if req.Type == rbio.MsgFeedBlock {
			fed <- struct{}{}
		}
		return rbio.Ok()
	})
	c := rbio.NewClient(dialTCP(t, addr))
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := c.Send(ctx, &rbio.Request{Type: rbio.MsgFeedBlock}); err != nil {
		t.Fatal(err)
	}
	// A subsequent call on the same conn proves frame boundaries are intact.
	if _, err := c.Call(ctx, &rbio.Request{Type: rbio.MsgPing}); err != nil {
		t.Fatal(err)
	}
	// Handlers of one connection run concurrently: the call's answer does
	// not mean the one-way's handler has run.
	select {
	case <-fed:
	case <-ctx.Done():
		t.Fatal("one-way frame never reached the handler")
	}
}

// Every version but the server's own is answered StatusVersion — answered,
// on a connection that stays up — and never reaches the handler.
func TestTCPVersionMismatch(t *testing.T) {
	var served atomic.Int32
	addr := serveTCP(t, func(context.Context, *rbio.Request) *rbio.Response {
		served.Add(1)
		return rbio.Ok()
	})
	conn := dialTCP(t, addr)
	for _, v := range []uint16{0, 1, 2, 77} {
		resp, err := conn.Call(context.Background(), &rbio.Request{Version: v, Type: rbio.MsgPing})
		if err != nil {
			t.Fatalf("v%d caller: %v", v, err)
		}
		if resp.Status != rbio.StatusVersion {
			t.Fatalf("v%d caller: status = %v", v, resp.Status)
		}
	}
	if served.Load() != 0 {
		t.Fatalf("handler reached by %d mismatched requests", served.Load())
	}
}

func TestTCPConcurrentClients(t *testing.T) {
	addr := serveTCP(t, func(_ context.Context, req *rbio.Request) *rbio.Response {
		resp := rbio.Ok()
		resp.LSN = req.LSN
		return resp
	})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			conn, err := netmux.DialTCP(addr, nil)
			if err != nil {
				t.Error(err)
				return
			}
			defer conn.Close()
			c := rbio.NewClient(conn)
			for j := 0; j < 30; j++ {
				want := page.LSN(n*1000 + j)
				resp, err := c.Call(context.Background(), &rbio.Request{Type: rbio.MsgPing, LSN: want})
				if err != nil || resp.LSN != want {
					t.Errorf("worker %d: %v %v", n, resp, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
}

// A frame of a retired kind gets its connection dropped unanswered; the
// server and its other connections are unharmed.
func TestTCPRetiredFrameKindDropsOnlyItsConn(t *testing.T) {
	addr := serveTCP(t, func(context.Context, *rbio.Request) *rbio.Response { return rbio.Ok() })
	other := rbio.NewClient(dialTCP(t, addr))
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	const retiredCallKind = 0 // its payload was the bare request
	req := rbio.AppendRequest(nil, &rbio.Request{Version: rbio.Version, Type: rbio.MsgPing})
	if _, err := rbio.WriteFrame(raw, retiredCallKind, req); err != nil {
		t.Fatal(err)
	}
	_ = raw.SetReadDeadline(time.Now().Add(5 * time.Second))
	if answer, err := io.ReadAll(raw); err != nil || len(answer) != 0 {
		t.Fatalf("read %d bytes, err %v; want the connection closed with nothing sent", len(answer), err)
	}
	if _, err := other.Call(context.Background(), &rbio.Request{Type: rbio.MsgPing}); err != nil {
		t.Fatalf("the other connection after the drop: %v", err)
	}
}

// tap forwards src to dst frame by frame and reports each frame's kind
// first, so a test sees what is on the wire rather than what the client
// believes it sent.
func tap(dst, src net.Conn, kinds chan<- byte) {
	defer dst.Close()
	for {
		kind, frame, err := rbio.ReadFrame(src)
		if err != nil {
			return
		}
		kinds <- kind
		if _, err := rbio.WriteFrame(dst, kind, frame); err != nil {
			return
		}
	}
}

// A Send is one frame: nothing precedes it on a fresh connection and
// nothing comes back for it.
func TestSendIsOneFrameOnTheWire(t *testing.T) {
	// Room for what a client that said more than it should would send.
	delivered, toServer, toClient := make(chan struct{}, 8), make(chan byte, 8), make(chan byte, 8)
	addr := serveTCP(t, func(context.Context, *rbio.Request) *rbio.Response {
		delivered <- struct{}{}
		return rbio.Ok()
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		client, err := ln.Accept()
		if err != nil {
			return
		}
		server, err := net.Dial("tcp", addr)
		if err != nil {
			client.Close()
			return
		}
		go tap(server, client, toServer)
		go tap(client, server, toClient)
	}()

	cl := rbio.NewClient(dialTCP(t, ln.Addr().String()))
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := cl.Send(ctx, &rbio.Request{Type: rbio.MsgHardenReport, LSN: 42}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-delivered:
	case <-ctx.Done():
		t.Fatal("the one-way never reached the server")
	}
	if n := len(toServer); n != 1 {
		t.Fatalf("%d frames client->server, want 1", n)
	}
	if kind := <-toServer; kind != rbio.FrameMuxOneway {
		t.Fatalf("client->server frame kind %d, want FrameMuxOneway", kind)
	}
	if n := len(toClient); n != 0 {
		t.Fatalf("%d frames server->client: a one-way must not be answered", n)
	}
}
