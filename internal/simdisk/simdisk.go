// Package simdisk simulates the storage devices and services Socrates runs
// on in Azure. The paper's evaluation is driven almost entirely by the
// latency, throughput, and CPU-cost differences between four device classes:
//
//   - Local SSD: fast (~80 µs), attached, non-durable. Backs RBPEX and the
//     XLOG destaging cache.
//   - XIO (Azure Premium Storage): remote, three-way replicated, durable.
//     Writes are priced like REST calls: milliseconds of latency and a high
//     CPU cost per call. Implements the landing zone in production.
//   - DirectDrive (DD): the newer RDMA-based service from Appendix A —
//     sub-millisecond writes and a much lower CPU cost per call.
//   - HDD: cheap, slow, throughput-capped spindles. Models the media under
//     XStore.
//
// A Device is a byte-addressable volume with a latency model (base cost +
// per-byte transfer + jitter + a rare tail spike), a token-bucket throughput
// cap, a per-call simulated CPU charge, and failure injection (one-shot
// errors and sticky outages). Latency is realized by sleeping, so wall-clock
// measurements of code built on simdisk have the same shape as the paper's.
package simdisk

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"socrates/internal/metrics"
	"socrates/internal/obs"
)

// ErrOutage is returned while a device is in an injected outage.
var ErrOutage = errors.New("simdisk: device outage")

// errOutOfRange is returned for reads beyond the written extent.
var errOutOfRange = errors.New("simdisk: read out of range")

// errDiscarded is returned for reads that touch a range given back with
// Discard.
var errDiscarded = errors.New("simdisk: read of a discarded range")

// Profile describes the performance model of a device class.
type Profile struct {
	Name string

	// ReadBase and WriteBase are the fixed per-call latencies.
	ReadBase  time.Duration
	WriteBase time.Duration

	// PerKB is the additional transfer latency per KiB moved.
	PerKB time.Duration

	// JitterFrac is the half-width of the uniform jitter applied to each
	// call's latency (0.2 = ±20%).
	JitterFrac float64

	// TailProb is the probability that a call hits a tail spike whose
	// latency is TailFactor times the nominal latency. Models the ~40 ms
	// max latencies both XIO and DD exhibit in Table 6.
	TailProb   float64
	TailFactor float64

	// ReadCPU and WriteCPU are the simulated CPU costs charged to the
	// calling node per call. The XIO/DD gap here reproduces Table 7.
	ReadCPU  time.Duration
	WriteCPU time.Duration

	// throughputMBps caps sustained bandwidth through a token bucket.
	// Zero means uncapped.
	throughputMBps float64
}

// Canonical device profiles, calibrated against the paper's numbers
// (Table 1 commit latencies, Table 6 XIO vs DD, §4.1.1 device roles).
var (
	// LocalSSD models a locally attached NVMe drive.
	LocalSSD = Profile{
		Name:       "local-ssd",
		ReadBase:   70 * time.Microsecond,
		WriteBase:  80 * time.Microsecond,
		PerKB:      150 * time.Nanosecond,
		JitterFrac: 0.15,
		TailProb:   0.0005,
		TailFactor: 8,
		ReadCPU:    4 * time.Microsecond,
		WriteCPU:   5 * time.Microsecond,
	}

	// XIO models Azure Premium Storage: REST-priced remote replicated
	// storage. A single-threaded commit through a 3-replica quorum write
	// lands near the paper's 2.5-3.3 ms.
	XIO = Profile{
		Name:           "xio",
		ReadBase:       1200 * time.Microsecond,
		WriteBase:      2800 * time.Microsecond,
		PerKB:          900 * time.Nanosecond,
		JitterFrac:     0.2,
		TailProb:       0.002,
		TailFactor:     12,
		ReadCPU:        90 * time.Microsecond,
		WriteCPU:       150 * time.Microsecond,
		throughputMBps: 400,
	}

	// DirectDrive models the RDMA-based service from Appendix A: ~4x lower
	// median latency and far cheaper calls (Win32 path, no REST).
	DirectDrive = Profile{
		Name:           "directdrive",
		ReadBase:       280 * time.Microsecond,
		WriteBase:      450 * time.Microsecond,
		PerKB:          250 * time.Nanosecond,
		JitterFrac:     0.25,
		TailProb:       0.002,
		TailFactor:     50,
		ReadCPU:        18 * time.Microsecond,
		WriteCPU:       30 * time.Microsecond,
		throughputMBps: 900,
	}

	// HDD models the spindles under XStore: cheap, slow, bandwidth-capped.
	HDD = Profile{
		Name:           "hdd",
		ReadBase:       4 * time.Millisecond,
		WriteBase:      5 * time.Millisecond,
		PerKB:          6 * time.Microsecond,
		JitterFrac:     0.3,
		TailProb:       0.003,
		TailFactor:     6,
		ReadCPU:        8 * time.Microsecond,
		WriteCPU:       10 * time.Microsecond,
		throughputMBps: 200,
	}

	// LAN models one intra-datacenter network hop (used by RBIO's
	// in-process transport and HADR log shipping).
	LAN = Profile{
		Name:       "lan",
		ReadBase:   120 * time.Microsecond,
		WriteBase:  120 * time.Microsecond,
		PerKB:      90 * time.Nanosecond,
		JitterFrac: 0.25,
		TailProb:   0.001,
		TailFactor: 20,
		ReadCPU:    6 * time.Microsecond,
		WriteCPU:   6 * time.Microsecond,
	}

	// Instant is a zero-latency profile for tests that need determinism
	// and speed rather than timing fidelity.
	Instant = Profile{Name: "instant"}
)

// Latency draws one call's latency for n bytes: base plus PerKB per KiB,
// scaled by one jitter draw from rng and then, with probability TailProb, by
// TailFactor. Devices and the RBIO fabric share it; each passes its own rng
// under the lock that guards it.
func (p *Profile) Latency(base time.Duration, n int, rng *rand.Rand) time.Duration {
	lat := base + time.Duration(float64(p.PerKB)*float64(n)/1024)
	if p.JitterFrac > 0 {
		lat = time.Duration(float64(lat) * (1 + p.JitterFrac*(2*rng.Float64()-1)))
	}
	if p.TailProb > 0 && rng.Float64() < p.TailProb {
		lat = time.Duration(float64(lat) * p.TailFactor)
	}
	return lat
}

// Device is a simulated byte-addressable volume. All methods are safe for
// concurrent use.
type Device struct {
	profile Profile
	cpu     *metrics.CPUMeter // may be nil
	bucket  *TokenBucket      // nil when uncapped
	waits   *obs.WaitRecorder // disk.read / disk.write lanes; may be nil

	mu sync.Mutex
	// The volume is a table of fixed-size chunks allocated on first write:
	// growing it never copies or reserves ahead, and a chunk nobody wrote
	// reads as zeros. A chunk given back with Discard points at discarded.
	chunks  []*[chunkSize]byte
	size    int64
	rng     *rand.Rand
	outage  bool
	failOne error         // returned by the next call, then cleared
	held    chan struct{} // non-nil while writes are held (HoldWrites)

	reads  atomic.Int64
	writes atomic.Int64
	bytesR atomic.Int64
	bytesW atomic.Int64
}

// ChunkSize is the allocation unit of a device's backing store, and so the
// unit Discard frees storage in: a log-structured store on a Device cuts its
// log into segments that are a multiple of it.
const ChunkSize = 64 << 10

const chunkSize = ChunkSize

// discarded stands in the chunk table for a chunk Discard gave back. Unlike
// a chunk nobody wrote, reading it is an error: its bytes are gone, not zero.
var discarded = new([chunkSize]byte)

// Option configures a Device.
type Option func(*Device)

// WithCPU attaches the CPU meter charged by this device's calls. Devices
// belong to a node; the node's meter is charged for the I/O issue cost.
func WithCPU(m *metrics.CPUMeter) Option { return func(d *Device) { d.cpu = m } }

// WithWaits attaches wait-event accounting: every call's simulated I/O
// time (token-bucket throttling included) lands under disk.read or
// disk.write on the owning tier's recorder.
func WithWaits(wr *obs.WaitRecorder) Option {
	return func(d *Device) { d.waits = wr }
}

// WithSeed fixes the jitter RNG seed for reproducible runs.
func WithSeed(seed int64) Option {
	return func(d *Device) { d.rng = rand.New(rand.NewSource(seed)) }
}

// MixSeed derives an independent child seed from a root seed and a lane
// number (splitmix64 finalizer). A deployment built from one root seed
// hands every device its own well-separated jitter stream, so the whole
// cluster replays from a single integer without correlated jitter across
// devices.
func MixSeed(seed, lane int64) int64 {
	z := uint64(seed) + uint64(lane)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	s := int64(z)
	if s == 0 {
		s = 1 // rand.NewSource(0) is legal but 0 doubles as "unset" upstream
	}
	return s
}

// New creates a device with the given profile.
func New(p Profile, opts ...Option) *Device {
	d := &Device{
		profile: p,
		rng:     rand.New(rand.NewSource(1)),
	}
	if p.throughputMBps > 0 {
		d.bucket = NewTokenBucket(p.throughputMBps * 1024 * 1024)
	}
	for _, o := range opts {
		o(d)
	}
	return d
}

// SetOutage toggles a sticky outage: while set, every call fails with
// ErrOutage. Models the transient XStore outages §4.6 describes.
func (d *Device) SetOutage(on bool) {
	d.mu.Lock()
	d.outage = on
	d.mu.Unlock()
}

// FailNext makes the next call (only) return err.
func (d *Device) FailNext(err error) {
	d.mu.Lock()
	d.failOne = err
	d.mu.Unlock()
}

// HoldWrites stalls the device's write path: every write that arrives from
// now on blocks, before it takes effect, until release is called. Reads go
// through. It is the write that never comes back, for tests that pin down
// who waits for the device and who must not; holding a held device panics.
func (d *Device) HoldWrites() (release func()) {
	gate := make(chan struct{})
	d.mu.Lock()
	if d.held != nil {
		d.mu.Unlock()
		panic("simdisk: HoldWrites on a device that is already held")
	}
	d.held = gate
	d.mu.Unlock()
	return func() {
		d.mu.Lock()
		d.held = nil
		d.mu.Unlock()
		close(gate)
	}
}

// Stats reports cumulative operation and byte counts: reads, writes,
// bytes read, bytes written.
func (d *Device) Stats() (reads, writes, bytesRead, bytesWritten int64) {
	return d.reads.Load(), d.writes.Load(), d.bytesR.Load(), d.bytesW.Load()
}

// Size reports the current extent of the volume in bytes.
func (d *Device) Size() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.size
}

// checkFailure consumes injected failures; returns a non-nil error if the
// call should fail. A write first waits out a hold (HoldWrites).
func (d *Device) checkFailure(write bool) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	for write && d.held != nil {
		gate := d.held
		d.mu.Unlock()
		<-gate
		d.mu.Lock()
	}
	if d.outage {
		return ErrOutage
	}
	if d.failOne != nil {
		err := d.failOne
		d.failOne = nil
		return err
	}
	return nil
}

// latency computes and consumes the simulated latency for a call of n bytes.
func (d *Device) latency(base time.Duration, n int) time.Duration {
	d.mu.Lock()
	lat := d.profile.Latency(base, n, d.rng)
	d.mu.Unlock()
	return lat
}

func (d *Device) charge(cpu time.Duration) {
	if d.cpu != nil {
		d.cpu.Charge(cpu)
	}
}

// ReadAt fills p from offset off. Reading past the written extent returns
// errOutOfRange; short reads do not occur.
func (d *Device) ReadAt(p []byte, off int64) error {
	if err := d.checkFailure(false); err != nil {
		return err
	}
	ioStart := time.Now()
	if d.bucket != nil {
		d.bucket.Acquire(len(p))
	}
	SleepPrecise(d.latency(d.profile.ReadBase, len(p)))
	d.waits.Observe(nil, obs.WaitDiskRead, time.Since(ioStart))
	d.charge(d.profile.ReadCPU)

	d.mu.Lock()
	defer d.mu.Unlock()
	if off < 0 || off+int64(len(p)) > d.size {
		return fmt.Errorf("%w: off=%d len=%d size=%d", errOutOfRange, off, len(p), d.size)
	}
	for ci := off / chunkSize; ci*chunkSize < off+int64(len(p)); ci++ {
		if d.chunks[ci] == discarded {
			return fmt.Errorf("%w: off=%d len=%d", errDiscarded, off, len(p))
		}
	}
	d.copyOut(p, off)
	d.reads.Add(1)
	d.bytesR.Add(int64(len(p)))
	return nil
}

// copyOut fills p from offset off. Caller holds d.mu and has checked that
// the range lies inside the volume.
func (d *Device) copyOut(p []byte, off int64) {
	for n := 0; n < len(p); {
		ci, co := (off+int64(n))/chunkSize, (off+int64(n))%chunkSize
		span := p[n:min(len(p), n+int(chunkSize-co))]
		if c := d.chunks[ci]; c != nil {
			copy(span, c[co:])
		} else {
			clear(span) // never written: zeros
		}
		n += len(span)
	}
}

// WriteAt stores p at offset off, growing the volume as needed. The call
// returns after the simulated write latency, modelling a durable write.
func (d *Device) WriteAt(p []byte, off int64) error {
	ioStart := time.Now()
	lat, err := d.writeRaw(p, off)
	if err != nil {
		return err
	}
	SleepPrecise(lat)
	d.waits.Observe(nil, obs.WaitDiskWrite, time.Since(ioStart))
	return nil
}

// WriteVec issues the writes bufs[i] at offs[i] side by side — a device
// queue deep enough for all of them — and returns when the slowest has
// completed. Each is a device call like WriteAt's: its own latency draw, CPU
// charge, throughput tokens, disk.write observation and count in Stats; one
// sleep stands for the overlapping waits, as in Replicated.WriteAt. It stops
// at the first write that fails: those before it are on the device, those
// after it were not issued.
func (d *Device) WriteVec(bufs [][]byte, offs []int64) error {
	var slowest time.Duration
	for i, p := range bufs {
		lat, err := d.writeRaw(p, offs[i])
		if err != nil {
			return err
		}
		d.waits.Observe(nil, obs.WaitDiskWrite, lat)
		slowest = max(slowest, lat)
	}
	SleepPrecise(slowest)
	return nil
}

// writeRaw stores p at off, charging CPU and consuming throughput tokens
// but NOT sleeping; it returns the latency the write would have cost.
// Replicated quorum writes use it to pay one combined sleep for the whole
// replica set.
func (d *Device) writeRaw(p []byte, off int64) (time.Duration, error) {
	if err := d.checkFailure(true); err != nil {
		return 0, err
	}
	if off < 0 {
		return 0, fmt.Errorf("simdisk: negative offset %d", off)
	}
	if d.bucket != nil {
		d.bucket.Acquire(len(p))
	}
	lat := d.latency(d.profile.WriteBase, len(p))
	d.charge(d.profile.WriteCPU)

	d.mu.Lock()
	defer d.mu.Unlock()
	d.growTo(off + int64(len(p)))
	for n := 0; n < len(p); {
		ci, co := (off+int64(n))/chunkSize, (off+int64(n))%chunkSize
		if c := d.chunks[ci]; c == nil || c == discarded {
			d.chunks[ci] = new([chunkSize]byte)
		}
		n += copy(d.chunks[ci][co:], p[n:])
	}
	d.writes.Add(1)
	d.bytesW.Add(int64(len(p)))
	return lat, nil
}

// growTo extends the volume to end bytes. Only the chunk table grows; the
// new range has no chunks yet and reads as zeros. Caller holds d.mu.
func (d *Device) growTo(end int64) {
	if end <= d.size {
		return
	}
	d.size = end
	if need := int((end + chunkSize - 1) / chunkSize); need > len(d.chunks) {
		d.chunks = append(d.chunks, make([]*[chunkSize]byte, need-len(d.chunks))...)
	}
}

// Truncate shrinks or grows the volume to n bytes without I/O latency
// (a metadata operation). Bytes cut off are gone: growing again exposes
// zeros.
func (d *Device) Truncate(n int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if n < 0 {
		n = 0
	}
	if n >= d.size {
		d.growTo(n)
		return
	}
	d.size = n
	keep := int((n + chunkSize - 1) / chunkSize)
	clear(d.chunks[keep:])
	d.chunks = d.chunks[:keep]
	if co := n % chunkSize; co != 0 && d.chunks[keep-1] != nil && d.chunks[keep-1] != discarded {
		clear(d.chunks[keep-1][co:])
	}
}

// Discard gives back the storage of every whole chunk inside [off, off+n) —
// the volume's TRIM, a metadata operation like Truncate. The volume keeps
// its size. A later read that touches a discarded chunk fails with
// errDiscarded rather than inventing zeros; a write into one brings it back.
// A chunk the range covers only in part keeps its bytes.
func (d *Device) Discard(off, n int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	end := min((off+n)/chunkSize, int64(len(d.chunks)))
	for ci := (max(off, 0) + chunkSize - 1) / chunkSize; ci < end; ci++ {
		d.chunks[ci] = discarded
	}
}

// SleepPrecise pauses for d with sub-millisecond accuracy. time.Sleep on
// many hosts has ~1 ms granularity, which would flatten the latency gaps
// the experiments depend on (an 80 µs SSD read vs a 450 µs DirectDrive
// write). Rather than having every waiter spin — which collapses on small
// hosts once tens of simulated I/Os are in flight — all waiters park on
// channels and one shared dispatcher goroutine watches the clock and wakes
// them at their deadlines. Between deadlines the dispatcher parks too (park,
// per platform) and spins only the last spinTail before each one.
func SleepPrecise(d time.Duration) {
	if d <= 0 {
		return
	}
	<-dispatcher.after(time.Now().Add(d))
}

// sleepDispatcher is the shared wake-up service: a min-heap of deadlines
// drained by a single clock-watching goroutine, which exists only while the
// heap is non-empty.
type sleepDispatcher struct {
	mu      sync.Mutex
	heap    waiterHeap
	running bool
	// target is the deadline the dispatcher is parked, or about to park,
	// toward; zero while it will read the heap again before it parks.
	target time.Time
	// word moves on whenever a push must cut the park short: park returns
	// at once when word no longer holds the value read under mu.
	word atomic.Uint32
}

type waiter struct {
	deadline time.Time
	ch       chan struct{}
}

var dispatcher = &sleepDispatcher{}

func (s *sleepDispatcher) after(deadline time.Time) chan struct{} {
	ch := make(chan struct{})
	s.mu.Lock()
	s.heap.push(waiter{deadline: deadline, ch: ch})
	if !s.running {
		s.running = true
		go s.run()
	}
	// Only a deadline earlier than the one the dispatcher parks toward
	// needs it awake; once woken it reads the heap, so later pushes need
	// no wake-up of their own.
	wake := !s.target.IsZero() && deadline.Before(s.target)
	if wake {
		s.target = time.Time{}
		s.word.Add(1)
	}
	s.mu.Unlock()
	if wake {
		unpark(&s.word)
	}
	return ch
}

func (s *sleepDispatcher) run() {
	for {
		s.mu.Lock()
		now := time.Now()
		woke := false
		for len(s.heap) > 0 && !s.heap[0].deadline.After(now) {
			close(s.heap.pop().ch)
			woke = true
		}
		s.target = time.Time{}
		if len(s.heap) == 0 {
			s.running = false
			s.mu.Unlock()
			return
		}
		next := s.heap[0].deadline
		parking := next.Sub(now) > spinTail
		if parking {
			s.target = next
		}
		// Read under mu, so a push that lands between here and the park
		// has changed it.
		val := s.word.Load()
		s.mu.Unlock()
		if woke || !parking {
			// Let the goroutines just woken run on this P before the
			// dispatcher blocks; inside the tail this is the spin.
			runtime.Gosched()
		}
		if parking {
			park(&s.word, val, time.Until(next))
		}
	}
}

// waiterHeap is a min-heap on deadline.
type waiterHeap []waiter

func (h *waiterHeap) push(w waiter) {
	*h = append(*h, w)
	i := len(*h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !(*h)[i].deadline.Before((*h)[parent].deadline) {
			break
		}
		(*h)[i], (*h)[parent] = (*h)[parent], (*h)[i]
		i = parent
	}
}

func (h *waiterHeap) pop() waiter {
	old := *h
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	*h = old[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && (*h)[l].deadline.Before((*h)[smallest].deadline) {
			smallest = l
		}
		if r < n && (*h)[r].deadline.Before((*h)[smallest].deadline) {
			smallest = r
		}
		if smallest == i {
			break
		}
		(*h)[i], (*h)[smallest] = (*h)[smallest], (*h)[i]
		i = smallest
	}
	return top
}

// TokenBucket rate-limits bytes/second with a one-second burst: the
// device throughput caps here and XStore's ingest cap.
type TokenBucket struct {
	mu     sync.Mutex
	rate   float64 // bytes per second
	tokens float64
	last   time.Time

	// The clock, so a test can run the bucket on a fake one.
	now   func() time.Time
	sleep func(time.Duration)
}

// NewTokenBucket returns a full bucket refilling at bytesPerSec.
func NewTokenBucket(bytesPerSec float64) *TokenBucket {
	return &TokenBucket{rate: bytesPerSec, tokens: bytesPerSec, last: time.Now(),
		now: time.Now, sleep: time.Sleep}
}

// Acquire blocks until n byte-tokens have been taken. The bucket never
// holds more than one second of rate, so a larger request is taken in
// instalments of at most that: asked for in one piece it would wait for a
// level the bucket cannot reach.
func (b *TokenBucket) Acquire(n int) {
	for left := float64(n); left > 0; {
		part := min(left, b.rate)
		b.take(part)
		left -= part
	}
}

// take blocks until need tokens (at most one burst) are available.
func (b *TokenBucket) take(need float64) {
	for {
		b.mu.Lock()
		now := b.now()
		b.tokens += now.Sub(b.last).Seconds() * b.rate
		if b.tokens > b.rate { // burst cap: one second of tokens
			b.tokens = b.rate
		}
		b.last = now
		if b.tokens >= need {
			b.tokens -= need
			b.mu.Unlock()
			return
		}
		deficit := need - b.tokens
		b.mu.Unlock()
		wait := time.Duration(deficit / b.rate * float64(time.Second))
		if wait < 100*time.Microsecond {
			wait = 100 * time.Microsecond
		}
		b.sleep(wait)
	}
}
