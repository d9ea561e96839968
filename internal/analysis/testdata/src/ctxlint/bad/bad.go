// Package bad is a ctxlint fixture: every way to break the context-first
// tracing discipline or to bypass the netmux fabric.
package bad

import (
	"context"
	"net"
	"time"

	"socrates/internal/netmux"
	"socrates/internal/rbio"
)

// Node talks to its peers.
type Node struct {
	client *rbio.Client
	mux    *netmux.MuxConn
}

// Lookup takes its context in second position. // want ctxlint: ctx not first
func (n *Node) Lookup(key string, ctx context.Context) (*rbio.Response, error) {
	return n.client.Call(ctx, &rbio.Request{})
}

// Refresh manufactures a TODO context. // want ctxlint: context.TODO
func (n *Node) Refresh() error {
	_, err := n.client.Call(context.TODO(), &rbio.Request{})
	return err
}

// Ping issues an RBIO call with no way for the caller's trace identity to
// reach the wire, and mints an unbounded context at it. // want ctxlint: no
// context parameter, no deadline
func (n *Node) Ping() error {
	_, err := n.client.Call(context.Background(), &rbio.Request{})
	return err
}

// connect opens a raw socket around the fabric. // want ctxlint: raw dial
func (n *Node) connect(addr string) (net.Conn, error) {
	return net.Dial("tcp", addr)
}

// connectTimeout is a raw dial too. // want ctxlint: raw dial
func (n *Node) connectTimeout(addr string) (net.Conn, error) {
	return net.DialTimeout("tcp", addr, time.Second)
}

// pingMux mints an unbounded context at a netmux conn. // want ctxlint: no deadline
func (n *Node) pingMux() error {
	_, err := n.mux.Call(context.Background(), &rbio.Request{Type: rbio.MsgPing})
	return err
}

// feed does the same on the fire-and-forget path. // want ctxlint: no deadline
func (n *Node) feed() error {
	return n.client.Send(context.Background(), &rbio.Request{Type: rbio.MsgPing})
}
