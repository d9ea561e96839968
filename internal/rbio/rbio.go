// Package rbio implements the Remote Block I/O protocol (§3.4): the typed,
// versioned, stateless request/response protocol Socrates tiers use to talk
// to each other. GetPage@LSN, XLOG block pulls, harden reports and the
// lossy primary→XLOG feed all travel over RBIO.
//
// The protocol properties the paper calls out are all present:
//
//   - strongly typed: requests and responses are structured messages with a
//     fixed binary codec, not raw byte blobs;
//   - automatic versioning: every message carries the protocol version and
//     a server answers any other version with StatusVersion;
//   - resilient to transient failures: clients retry retryable statuses and
//     transport errors with backoff;
//   - QoS support for best-replica selection: clients track an EWMA of
//     per-endpoint latency and a Selector routes each call to the currently
//     fastest healthy endpoint.
//
// Client, one per destination, carries the client side of all of these,
// and bounds the work it lets onto the wire (an in-flight cap and a bounded
// wait queue, past which it fails fast with socerr.ErrBackpressure).
//
// One message layout rides two transports: an in-process fabric with a
// simulated network latency profile (single-process clusters and tests,
// with optional lossy fire-and-forget semantics for the XLOG feed), and TCP
// with length-prefixed, request-ID-tagged frames (see internal/netmux for
// the client side).
package rbio

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"

	"socrates/internal/obs"
	"socrates/internal/page"
)

// Version is the one protocol version this build speaks. Clients stamp it
// on every request and servers answer any other value with StatusVersion
// (see checkVersion); there is no negotiation.
const Version uint16 = 3

// msgType identifies an RBIO operation.
type msgType uint8

// RBIO operations. A retired number is held by a blank and never reassigned.
const (
	MsgPing         msgType = iota // liveness / RTT probe
	MsgGetPage                     // GetPage@LSN: Page, LSN → page image
	MsgPullBlocks                  // log consumer pull: LSN, Partition, MaxBytes → blocks
	_                              // retired: report-applied
	MsgFeedBlock                   // lossy primary→XLOG feed: Payload = encoded block
	MsgHardenReport                // primary→XLOG: LSN = hardened watermark
	_                              // retired: write-pages
	MsgReadState                   // introspection: current applied/hardened LSNs
	_                              // retired: scan-cells
)

func (m msgType) String() string {
	switch m {
	case MsgPing:
		return "ping"
	case MsgGetPage:
		return "get-page"
	case MsgPullBlocks:
		return "pull-blocks"
	case MsgFeedBlock:
		return "feed-block"
	case MsgHardenReport:
		return "harden-report"
	case MsgReadState:
		return "read-state"
	default:
		return fmt.Sprintf("msg(%d)", uint8(m))
	}
}

// status is the outcome of a request.
type status uint8

// Statuses. statusRetry marks transient conditions the client should retry
// (e.g. a page server still seeding); statusError is terminal. A retired
// number is held by a blank and never reassigned.
const (
	StatusOK status = iota
	statusRetry
	statusError
	StatusVersion // protocol version mismatch
	_             // retired: not-found
	_             // retired: partial
)

func (s status) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case statusRetry:
		return "retry"
	case statusError:
		return "error"
	case StatusVersion:
		return "version-mismatch"
	default:
		return fmt.Sprintf("status(%d)", uint8(s))
	}
}

// Request is an RBIO request. Field meaning depends on Type; unused fields
// are zero.
type Request struct {
	Version   uint16
	Type      msgType
	traceID   uint64   // trace header: request-tree identity (0 = untraced)
	spanID    uint64   // trace header: caller's span (0 = untraced)
	Page      page.ID  // MsgGetPage
	LSN       page.LSN // MsgGetPage (min LSN), MsgPullBlocks (from), reports
	Partition int32    // MsgPullBlocks filter; -1 = unfiltered (secondaries)
	MaxBytes  int32    // MsgPullBlocks budget
	Consumer  string   // MsgFeedBlock: the producer epoch, in decimal
	Payload   []byte   // MsgFeedBlock
}

// Response is an RBIO response.
type Response struct {
	version uint16
	Status  status
	Error   string   // human-readable cause when Status != StatusOK
	LSN     page.LSN // context-dependent: applied LSN, next pull LSN, ...
	Payload []byte   // a page image or encoded blocks
}

// Ok builds a success response.
func Ok() *Response { return &Response{version: Version, Status: StatusOK} }

// Errorf builds a terminal error response.
func Errorf(format string, args ...any) *Response {
	return &Response{version: Version, Status: statusError, Error: fmt.Sprintf(format, args...)}
}

// Retryf builds a retryable response.
func Retryf(format string, args ...any) *Response {
	return &Response{version: Version, Status: statusRetry, Error: fmt.Sprintf(format, args...)}
}

// Err converts a non-OK response into a Go error (nil for StatusOK). The
// returned error is a *responseError, so callers can classify with
// errors.As, and it unwraps to the matching sentinel (errRetryable,
// errVersion) so existing errors.Is checks keep working.
func (r *Response) Err() error {
	if r.Status == StatusOK {
		return nil
	}
	return &responseError{status: r.Status, msg: r.Error}
}

// responseError is the typed form of a non-OK RBIO response.
type responseError struct {
	status status
	msg    string
}

func (e *responseError) Error() string {
	sentinel := e.Unwrap()
	if sentinel == nil {
		if e.msg == "" {
			return "rbio: " + e.status.String()
		}
		return e.msg
	}
	return fmt.Sprintf("%v: %s", sentinel, e.msg)
}

// Unwrap maps the status to its sentinel (nil for the terminal
// statusError status, whose only classification is errors.As with a
// *responseError target).
func (e *responseError) Unwrap() error {
	switch e.status {
	case statusRetry:
		return errRetryable
	case StatusVersion:
		return errVersion
	default:
		return nil
	}
}

// Sentinel errors surfaced by Response.Err and the client.
var (
	errRetryable   = errors.New("rbio: retryable")
	errVersion     = errors.New("rbio: protocol version mismatch")
	ErrUnavailable = errors.New("rbio: endpoint unavailable")
)

// Handler processes one request. Handlers must be stateless with respect
// to the connection: every request is self-describing (§3.4). The context
// carries cancellation plus the span identity decoded from the frame's
// trace header — never the caller's in-process values, so in-process and
// TCP transports behave identically.
type Handler func(ctx context.Context, req *Request) *Response

// --- binary codec (shared by both transports) ---

func appendString(buf []byte, s string) []byte {
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(s)))
	return append(buf, s...)
}

func appendBytes(buf []byte, b []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(b)))
	return append(buf, b...)
}

// AppendRequest appends the encoded request to dst and returns the
// extended slice, so callers that own a reusable buffer (netmux framing,
// the GetPage fan-out) encode without allocating. The layout is the same
// for every value of the Version field.
//
//socrates:hotpath per-RPC encode on every inter-tier call; TestMuxCallAllocs
func AppendRequest(dst []byte, r *Request) []byte {
	buf := dst
	buf = binary.LittleEndian.AppendUint16(buf, r.Version)
	buf = append(buf, byte(r.Type))
	buf = binary.LittleEndian.AppendUint64(buf, r.traceID)
	buf = binary.LittleEndian.AppendUint64(buf, r.spanID)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(r.Page))
	buf = binary.LittleEndian.AppendUint64(buf, r.LSN.Uint64())
	buf = binary.LittleEndian.AppendUint32(buf, uint32(r.Partition))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(r.MaxBytes))
	buf = appendString(buf, r.Consumer)
	buf = appendBytes(buf, r.Payload)
	return buf
}

// DecodeRequest parses a request frame.
func DecodeRequest(buf []byte) (*Request, error) {
	const fixed = 2 + 1 + 8 + 8 + 8 + 8 + 4 + 4 + 2
	if len(buf) < fixed {
		return nil, errors.New("rbio: short request frame")
	}
	r := &Request{
		Version:   binary.LittleEndian.Uint16(buf[0:2]),
		Type:      msgType(buf[2]),
		traceID:   binary.LittleEndian.Uint64(buf[3:11]),
		spanID:    binary.LittleEndian.Uint64(buf[11:19]),
		Page:      page.ID(binary.LittleEndian.Uint64(buf[19:27])),
		LSN:       page.LSN(binary.LittleEndian.Uint64(buf[27:35])),
		Partition: int32(binary.LittleEndian.Uint32(buf[35:39])),
		MaxBytes:  int32(binary.LittleEndian.Uint32(buf[39:43])),
	}
	pos := 43
	slen := int(binary.LittleEndian.Uint16(buf[pos : pos+2]))
	pos += 2
	if len(buf) < pos+slen+4 {
		return nil, errors.New("rbio: truncated request consumer")
	}
	r.Consumer = string(buf[pos : pos+slen])
	pos += slen
	plen := int(binary.LittleEndian.Uint32(buf[pos : pos+4]))
	pos += 4
	if len(buf) != pos+plen {
		return nil, errors.New("rbio: request payload length mismatch")
	}
	if plen > 0 {
		r.Payload = append([]byte(nil), buf[pos:pos+plen]...)
	}
	return r, nil
}

// AppendResponse appends the encoded response to dst and returns the
// extended slice, so the server's frame write path encodes without
// allocating.
//
//socrates:hotpath per-RPC encode on every inter-tier response; TestMuxCallAllocs
func AppendResponse(dst []byte, r *Response) []byte {
	buf := dst
	buf = binary.LittleEndian.AppendUint16(buf, r.version)
	buf = append(buf, byte(r.Status))
	buf = binary.LittleEndian.AppendUint64(buf, r.LSN.Uint64())
	buf = appendString(buf, r.Error)
	buf = appendBytes(buf, r.Payload)
	return buf
}

// DecodeResponse parses a response frame.
func DecodeResponse(buf []byte) (*Response, error) {
	const fixed = 2 + 1 + 8 + 2
	if len(buf) < fixed {
		return nil, errors.New("rbio: short response frame")
	}
	r := &Response{
		version: binary.LittleEndian.Uint16(buf[0:2]),
		Status:  status(buf[2]),
		LSN:     page.LSN(binary.LittleEndian.Uint64(buf[3:11])),
	}
	pos := 11
	slen := int(binary.LittleEndian.Uint16(buf[pos : pos+2]))
	pos += 2
	if len(buf) < pos+slen+4 {
		return nil, errors.New("rbio: truncated response error")
	}
	r.Error = string(buf[pos : pos+slen])
	pos += slen
	plen := int(binary.LittleEndian.Uint32(buf[pos : pos+4]))
	pos += 4
	if len(buf) != pos+plen {
		return nil, errors.New("rbio: response payload length mismatch")
	}
	if plen > 0 {
		r.Payload = append([]byte(nil), buf[pos:pos+plen]...)
	}
	return r, nil
}

// checkVersion wraps a handler with protocol version enforcement — a
// request of any version but Version is answered StatusVersion and never
// reaches the handler — and with trace-header decoding: the handler's
// context carries exactly the span identity from the frame — ambient
// in-process values are overwritten, so both transports propagate traces
// the same way.
func checkVersion(h Handler) Handler {
	return func(ctx context.Context, req *Request) *Response {
		if req.Version != Version {
			return &Response{version: Version, Status: StatusVersion,
				Error: fmt.Sprintf("server speaks v%d, caller sent v%d", Version, req.Version)}
		}
		sc := obs.SpanContext{TraceID: obs.TraceID(req.traceID), SpanID: obs.SpanID(req.spanID)}
		resp := h(obs.ContextWithSpan(ctx, sc), req)
		if resp == nil {
			resp = Errorf("nil response from handler for %v", req.Type)
		}
		resp.version = Version
		return resp
	}
}
