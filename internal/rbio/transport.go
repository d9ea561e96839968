package rbio

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"time"

	"socrates/internal/simdisk"
	"socrates/internal/socerr"
)

// Conn is one client connection to an RBIO endpoint.
type Conn interface {
	// Call sends a request and waits for the response. The context
	// bounds the wait; its span identity travels in the request's trace
	// header, never as an in-process value.
	Call(ctx context.Context, req *Request) (*Response, error)
	// Send delivers a request fire-and-forget: no response, no delivery
	// guarantee. The lossy primary→XLOG feed uses this path (§4.3).
	Send(ctx context.Context, req *Request) error
	// Addr identifies the remote endpoint.
	Addr() string
	// Close releases the connection.
	Close() error
}

// --- in-process transport ---

// Network is an in-process RBIO fabric with a simulated latency profile.
// Single-process clusters (and all tests) run on it; the latency model makes
// remote I/O genuinely slower than local cache hits, as in the paper.
type Network struct {
	mu       sync.Mutex
	handlers map[string]Handler
	profile  simdisk.Profile
	rng      *rand.Rand
	loss     float64 // fire-and-forget drop probability
	maxDelay time.Duration

	// flight is the current generation of calls and sends in flight; Sever
	// tears it and starts a new one.
	flightMu sync.Mutex
	flight   *flightGen
}

// flightGen counts the calls and undelivered sends that started since the
// last Sever. Guarded by Network.flightMu.
type flightGen struct {
	n    int
	torn bool
}

// NewNetwork creates a fabric with the LAN latency profile.
func NewNetwork() *Network {
	return &Network{
		handlers: make(map[string]Handler),
		profile:  simdisk.LAN,
		rng:      rand.New(rand.NewSource(42)),
		flight:   &flightGen{},
	}
}

// NewInstantNetwork creates a zero-latency fabric for unit tests.
func NewInstantNetwork() *Network {
	return NewNetworkWith(simdisk.Instant)
}

// NewNetworkWith creates a fabric with a custom latency profile — e.g. a
// cross-availability-zone link for HADR replication.
func NewNetworkWith(p simdisk.Profile) *Network {
	n := NewNetwork()
	n.profile = p
	return n
}

// SetLoss sets the drop probability for fire-and-forget sends. Calls are
// never dropped (they ride a reliable channel; only Sever tears them).
func (n *Network) SetLoss(p float64) {
	n.mu.Lock()
	n.loss = p
	n.mu.Unlock()
}

// SetSeed re-seeds the fabric's jitter/loss/reorder RNG so an entire
// deployment's network behavior replays from one integer (chaos harness
// reproducibility). Call before traffic flows; a zero seed is a no-op,
// keeping the default stream.
func (n *Network) SetSeed(seed int64) {
	if seed == 0 {
		return
	}
	n.mu.Lock()
	n.rng = rand.New(rand.NewSource(seed))
	n.mu.Unlock()
}

// SetReorderWindow makes fire-and-forget sends arrive with up to d of extra
// random delay, so later sends can overtake earlier ones (the "lossy
// protocol" of §4.3 reorders as well as drops).
func (n *Network) SetReorderWindow(d time.Duration) {
	n.mu.Lock()
	n.maxDelay = d
	n.mu.Unlock()
}

// Serve registers a handler under addr, replacing any previous registration.
func (n *Network) Serve(addr string, h Handler) {
	n.mu.Lock()
	n.handlers[addr] = checkVersion(h)
	n.mu.Unlock()
}

// Unserve removes addr, simulating a node going down.
func (n *Network) Unserve(addr string) {
	n.mu.Lock()
	delete(n.handlers, addr)
	n.mu.Unlock()
}

// Sever tears every call and send in flight at this moment (chaos
// injection: a fabric-wide partition). A torn call's handler still runs,
// but its response is lost when it would have arrived and the caller gets
// ErrUnavailable, which Client retries; a torn send not yet delivered is
// dropped. It reports how many it tore.
func (n *Network) Sever() int {
	n.flightMu.Lock()
	defer n.flightMu.Unlock()
	g := n.flight
	g.torn = true
	n.flight = &flightGen{}
	return g.n
}

// depart registers one call or send in the current flight generation.
func (n *Network) depart() *flightGen {
	n.flightMu.Lock()
	g := n.flight
	g.n++
	n.flightMu.Unlock()
	return g
}

// arrive retires a registration and reports whether a Sever tore it.
func (n *Network) arrive(g *flightGen) (torn bool) {
	n.flightMu.Lock()
	g.n--
	torn = g.torn
	n.flightMu.Unlock()
	return torn
}

// latency computes one network hop's delay for a payload of the given size.
func (n *Network) latency(bytes int) time.Duration {
	n.mu.Lock()
	//socrates:lock-ok Profile.Latency is arithmetic on the rng n.mu guards; it does no I/O
	lat := n.profile.Latency(n.profile.ReadBase, bytes, n.rng)
	n.mu.Unlock()
	return lat
}

// Dial opens a connection to addr. The handler is resolved per call, so a
// node that restarts under the same address is reachable over old conns.
func (n *Network) Dial(addr string) Conn {
	return &inprocConn{net: n, addr: addr}
}

type inprocConn struct {
	net  *Network
	addr string
}

func (c *inprocConn) resolve() (Handler, error) {
	c.net.mu.Lock()
	h, ok := c.net.handlers[c.addr]
	c.net.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnavailable, c.addr)
	}
	return h, nil
}

func (c *inprocConn) Call(ctx context.Context, req *Request) (*Response, error) {
	h, err := c.resolve()
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, socerr.FromContext(err)
	}
	g := c.net.depart()
	simdisk.SleepPrecise(c.net.latency(len(req.Payload) + 64))
	// The handler sees cancellation from ctx, but its trace identity is
	// (re)derived from the frame by the checkVersion wrapper — exactly as
	// over TCP, where nothing else survives the hop.
	resp := h(ctx, req)
	simdisk.SleepPrecise(c.net.latency(len(resp.Payload) + 32))
	if c.net.arrive(g) {
		return nil, fmt.Errorf("%w: %s: severed in flight", ErrUnavailable, c.addr)
	}
	return resp, nil
}

func (c *inprocConn) Send(_ context.Context, req *Request) error {
	h, err := c.resolve()
	if err != nil {
		return err
	}
	c.net.mu.Lock()
	drop := c.net.rng.Float64() < c.net.loss
	var extra time.Duration
	if c.net.maxDelay > 0 {
		extra = time.Duration(c.net.rng.Int63n(int64(c.net.maxDelay)))
	}
	c.net.mu.Unlock()
	if drop {
		return nil // silently lost, as a lossy datagram would be
	}
	delay := c.net.latency(len(req.Payload)+64) + extra
	g := c.net.depart()
	go func() {
		simdisk.SleepPrecise(delay)
		if c.net.arrive(g) {
			return // severed before delivery
		}
		// Detached from the sender's lifetime, as a datagram would be;
		// the trace header still rides the frame.
		h(context.Background(), req)
	}()
	return nil
}

func (c *inprocConn) Addr() string { return c.addr }
func (c *inprocConn) Close() error { return nil }

// --- TCP transport ---

// Frame kinds on the wire. Every frame's payload starts with an 8-byte
// little-endian request ID, so many calls can be in flight per connection
// and responses pair by ID, out of order. Kinds 0 and 1 are retired: they
// are never to be reassigned, and a server drops a connection that sends
// one, as it does for any kind it does not know.
const (
	FrameMuxCall   = 2 // [8-byte id][request]: expects FrameMuxResp with same id
	FrameMuxResp   = 3 // [8-byte id][response]
	FrameMuxOneway = 4 // [8-byte id][request]: no response, id ignored
)

// maxFrame is the largest payload ReadFrame accepts; a longer length prefix
// is an error, so a corrupt one cannot ask for the allocation.
const maxFrame = 64 << 20

// tcpServer serves RBIO over TCP with length-prefixed binary frames.
type tcpServer struct {
	ln      net.Listener
	handler Handler
	wg      sync.WaitGroup
}

// ServeTCP starts a server on addr (e.g. "127.0.0.1:0").
func ServeTCP(addr string, h Handler) (*tcpServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &tcpServer{ln: ln, handler: checkVersion(h)}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr reports the bound address.
func (s *tcpServer) Addr() string { return s.ln.Addr().String() }

// Close stops accepting and waits for active connections to drain.
func (s *tcpServer) Close() error {
	err := s.ln.Close()
	s.wg.Wait()
	return err
}

func (s *tcpServer) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

// serveConn runs one accepted connection. Each request frame spawns a
// handler goroutine, so many requests from one client run concurrently; a
// write mutex keeps their response frames whole. A context per connection
// cancels in-flight handlers when the peer goes away, so an abandoned
// GetPage does not hold server resources. A frame that cannot be decoded,
// or whose kind is not a request kind, drops the connection.
func (s *tcpServer) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer conn.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wmu sync.Mutex // serializes response frames
	var inflight sync.WaitGroup
	defer inflight.Wait()
	for {
		kind, frame, err := ReadFrame(conn)
		if err != nil {
			return
		}
		if kind != FrameMuxCall && kind != FrameMuxOneway {
			return // not a request kind: protocol error, drop the conn
		}
		if len(frame) < 8 {
			return // torn frame: drop the connection
		}
		id := binary.LittleEndian.Uint64(frame[:8])
		req, err := DecodeRequest(frame[8:])
		if err != nil {
			return
		}
		inflight.Add(1)
		go func(kind byte, id uint64, req *Request) {
			defer inflight.Done()
			resp := s.handler(ctx, req)
			if kind == FrameMuxOneway {
				return
			}
			// Stage [id][response] in a pooled buffer: this path runs
			// once per RPC served.
			bp := frameBufPool.Get().(*[]byte)
			buf := binary.LittleEndian.AppendUint64((*bp)[:0], id)
			buf = AppendResponse(buf, resp)
			wmu.Lock()
			_, err := WriteFrame(conn, FrameMuxResp, buf)
			wmu.Unlock()
			*bp = buf[:0]
			frameBufPool.Put(bp)
			if err != nil {
				conn.Close() // unblocks the read loop; conn is done
			}
		}(kind, id, req)
	}
}

// frameBufPool recycles the header+payload staging buffers so the frame
// write path allocates nothing in steady state. A buffer is safe to
// recycle the moment Write returns: io.Writer must not retain its
// argument.
var frameBufPool = sync.Pool{
	New: func() any { b := make([]byte, 0, 4096); return &b },
}

// WriteFrame writes one length-prefixed frame, [len u32 LE][kind u8][payload],
// and reports how many bytes of it reached w. Concurrent writers on one
// conn must serialize externally. The frame is staged in one pooled buffer
// and written with one Write call; on an error a count of zero means the
// stream is untouched, any other count that it now ends in a torn frame
// and cannot carry another.
//
//socrates:hotpath every inter-tier frame funnels through here; TestMuxCallAllocs
func WriteFrame(w io.Writer, kind byte, payload []byte) (int, error) {
	bp := frameBufPool.Get().(*[]byte)
	buf := append((*bp)[:0], 0, 0, 0, 0, kind)
	binary.LittleEndian.PutUint32(buf, uint32(len(payload)))
	buf = append(buf, payload...)
	n, err := w.Write(buf)
	*bp = buf[:0]
	frameBufPool.Put(bp)
	return n, err
}

// ReadFrame reads one frame written by WriteFrame. An error — a short
// read, or a length prefix beyond maxFrame — leaves the stream at an
// unknown offset, so the caller must drop the connection.
func ReadFrame(r io.Reader) (kind byte, payload []byte, err error) {
	head := make([]byte, 5)
	if _, err := io.ReadFull(r, head); err != nil {
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(head)
	if n > maxFrame {
		return 0, nil, fmt.Errorf("rbio: frame of %d bytes exceeds limit", n)
	}
	payload = make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, err
	}
	return head[4], payload, nil
}
