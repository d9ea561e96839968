// Package clean is a ctxlint fixture: the sanctioned context and fabric
// patterns.
package clean

import (
	"context"
	"time"

	"socrates/internal/netmux"
	"socrates/internal/rbio"
)

// Node talks to its peers through the fabric.
type Node struct {
	client *rbio.Client
	mux    *netmux.MuxConn
}

// LookupContext is the ctx-first form.
func (n *Node) LookupContext(ctx context.Context, key string) (*rbio.Response, error) {
	return n.client.Call(ctx, &rbio.Request{})
}

// Lookup is the compatibility wrapper: it delegates to the *Context
// variant at a genuine root, which ctxlint recognizes.
func (n *Node) Lookup(key string) (*rbio.Response, error) {
	return n.LookupContext(context.Background(), key)
}

// Drain is a reviewed exception: it runs at process shutdown where no
// request context exists.
//
//socrates:ctx-ok shutdown path, no request in flight to trace
func (n *Node) Drain() error {
	_, err := n.client.Call(context.Background(), &rbio.Request{})
	return err
}

// ping bounds the wire call with a deadline.
func (n *Node) ping(ctx context.Context) error {
	ctx, cancel := context.WithTimeout(ctx, time.Second)
	defer cancel()
	_, err := n.client.Call(ctx, &rbio.Request{Type: rbio.MsgPing})
	return err
}

// pingMux threads the caller's (already bounded) context through.
func (n *Node) pingMux(ctx context.Context) error {
	_, err := n.mux.Call(ctx, &rbio.Request{Type: rbio.MsgPing})
	return err
}

// warm is a reviewed unbounded site: boot-time warmup with no caller to
// time it out.
func (n *Node) warm() error {
	//socrates:ctx-ok boot-time warmup; progress is monitored by the boot watchdog, not a per-call deadline
	_, err := n.client.Call(context.Background(), &rbio.Request{Type: rbio.MsgPing})
	return err
}

// dial opens a fabric conn — the transport does the raw dialing.
func dial(addr string, m *rbio.Metrics) (rbio.Conn, error) {
	return netmux.DialTCP(addr, m)
}
