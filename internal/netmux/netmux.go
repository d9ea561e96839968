// Package netmux is the TCP side of the multiplexed, pipelined RPC fabric
// inter-tier Socrates traffic rides on: many calls in flight per
// connection, and a timeout that costs the caller its call, never the
// connection — which is what keeps the GetPage@LSN (§4.4) and log-feed
// (§4.2/§4.3) wires busy.
//
//   - MuxConn: one stream carrying many concurrent calls. Every request
//     frame is tagged with a monotonically assigned 8-byte request ID; a
//     per-connection demux goroutine pairs out-of-order responses to
//     their waiting callers by ID. A timed-out caller abandons its ID
//     and walks away — the late response is dropped when it arrives and
//     the connection survives. Only a genuinely torn frame (partial
//     write, undecodable response, unexpected kind) kills a connection.
//
//   - DialTCP: connect and wrap the socket in a MuxConn. The protocol
//     version travels in every request (rbio.Version) and a mismatch is
//     answered per request, so there is nothing to exchange first.
//
// A MuxConn is an rbio.Conn, so rbio.Client — the one client per
// destination, which owns stamping, retry, replica choice and the
// in-flight cap — layers directly on top, as it does on the in-process
// fabric (rbio.Network). The package is zero-dependency (stdlib + the
// repo's own rbio/obs/socerr).
package netmux
