// Package netmux is the multiplexed, pipelined RPC fabric all
// inter-tier Socrates traffic rides on: many calls in flight per
// connection, and a timeout that costs the caller its call, never the
// connection — which is what keeps the GetPage@LSN (§4.4) and log-feed
// (§4.2/§4.3) wires busy.
//
// The pieces, bottom-up:
//
//   - MuxConn: one stream carrying many concurrent calls. Every request
//     frame is tagged with a monotonically assigned 8-byte request ID; a
//     per-connection demux goroutine pairs out-of-order responses to
//     their waiting callers by ID. A timed-out caller abandons its ID
//     and walks away — the late response is dropped when it arrives and
//     the connection survives. Only a genuinely torn frame (partial
//     write, undecodable response, unexpected kind) kills a connection.
//
//   - Pool: N MuxConns to one destination with round-robin dispatch,
//     lazy dialing, and health-based eviction (a conn that turns
//     unavailable is closed and replaced on next use). The pool bounds
//     work with a per-destination in-flight cap plus a bounded wait
//     queue: callers beyond the cap wait for a slot; callers beyond the
//     queue bound fail fast with socerr.ErrBackpressure instead of
//     piling up goroutines.
//
//   - DialTCP: connect and wrap the socket in a MuxConn. The protocol
//     version travels in every request (rbio.Version) and a mismatch is
//     answered per request, so there is nothing to exchange first.
//
// The package is zero-dependency (stdlib + the repo's own rbio/obs/
// page/socerr) and transport-agnostic: a Pool works equally over TCP
// mux conns and the in-process simulated fabric.
package netmux

import (
	"socrates/internal/obs"
)

// Metrics bundles the fabric's obs instruments. All fields are non-nil
// after NewMetrics; a nil *Metrics disables instrumentation (every
// method on the types below tolerates it).
type Metrics struct {
	Inflight     *obs.Gauge     // calls currently on the wire per process
	QueueDepth   *obs.Gauge     // callers waiting for an in-flight slot
	QueueWait    *obs.Histogram // time spent waiting for a slot
	Backpressure *obs.Counter   // fail-fast rejections (queue bound hit)
	Dials        *obs.Counter   // connections opened by pools
	Evictions    *obs.Counter   // connections evicted (unhealthy/severed)
	LateDrops    *obs.Counter   // responses dropped by ID after abandonment

	// Waits, if set, receives wait-event accounting: netmux.queue while a
	// caller waits for an in-flight slot, netmux.rtt while a call is on
	// the wire. NewMetrics leaves it nil; the cluster wires it so all
	// fabric waits land under one pseudo-tier.
	Waits *obs.WaitRecorder
}

// waits returns the wait recorder, tolerating a nil receiver. A nil
// recorder still attributes waits to the context's profile and span.
func (m *Metrics) waits() *obs.WaitRecorder {
	if m == nil {
		return nil
	}
	return m.Waits
}

// NewMetrics registers the fabric's instruments on r.
func NewMetrics(r *obs.Registry) *Metrics {
	return &Metrics{
		Inflight:     r.Gauge("netmux.inflight"),
		QueueDepth:   r.Gauge("netmux.queue.depth"),
		QueueWait:    r.Histogram("netmux.queue.wait"),
		Backpressure: r.Counter("netmux.backpressure.trips"),
		Dials:        r.Counter("netmux.conn.dials"),
		Evictions:    r.Counter("netmux.conn.evictions"),
		LateDrops:    r.Counter("netmux.late.drops"),
	}
}
