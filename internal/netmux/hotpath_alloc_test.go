package netmux

import (
	"context"
	"io"
	"net"
	"testing"

	"socrates/internal/obs"
	"socrates/internal/rbio"
	"socrates/internal/testutil"
)

// TestMuxCallAllocs is the allocation contract for the mux RPC path: the
// call budget covers one full in-process round trip — client staging +
// frame write, server read/decode/encode, client demux + decode — so it
// pins both sides of the fabric at once. The pooled staging buffers, pooled
// waiter channels, and append-style codecs are what keep it this low;
// regressions (a per-call make, a dropped pool) blow the budget. A traced
// caller's round-trip wait lands in its span at no extra cost, and a
// fire-and-forget send into a peer that only reads allocates nothing.
func TestMuxCallAllocs(t *testing.T) {
	testutil.SkipIfRace(t)

	ok := rbio.Ok()
	addr := startMuxServer(t, func(_ context.Context, _ *rbio.Request) *rbio.Response {
		return ok
	})
	c := dialMux(t, addr)

	client, sink := net.Pipe()
	go func() { _, _ = io.Copy(io.Discard, sink) }()
	oneway := newMuxConn(client, "sink", nil)
	t.Cleanup(func() { _ = oneway.Close() })

	ctx := context.Background()
	traced, span := obs.NewTracer().StartSpan(ctx, obs.TierCompute, "contract")
	req := &rbio.Request{Type: rbio.MsgPing}
	// The irreducible steady-state costs of a call: the read-side frame
	// buffers and decoded request/response values on both peers.
	for _, tc := range []struct {
		name   string
		budget float64
		op     func() error
	}{
		{"Call", 16, func() error { _, err := c.Call(ctx, req); return err }},
		{"traced Call", 16, func() error { _, err := c.Call(traced, req); return err }},
		{"Send", 0, func() error { return oneway.Send(ctx, req) }},
	} {
		// Warm the pools and the connection before measuring.
		for i := 0; i < 64; i++ {
			if err := tc.op(); err != nil {
				t.Fatal(err)
			}
		}
		avg := testing.AllocsPerRun(200, func() {
			if err := tc.op(); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("mux %s: %.1f allocs/op (budget %.0f)", tc.name, avg, tc.budget)
		if avg > tc.budget {
			t.Errorf("mux %s: %.1f allocs/op, budget %.0f", tc.name, avg, tc.budget)
		}
	}
	span.End()
	if len(span.WaitBreakdown()) == 0 {
		t.Fatal("the traced calls recorded no wait into their span")
	}
}
