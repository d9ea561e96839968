// Package xlog implements the XLOG service (§4.3): the tier that owns log
// durability and dissemination in Socrates. It contains the landing zone
// (the fast, small, durable circular buffer the primary commits into), the
// pending area and LogBroker that disseminate hardened blocks to consumers,
// and the destaging pipeline into the local SSD block cache and the
// long-term archive (LT) in XStore.
package xlog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"

	"socrates/internal/obs"
	"socrates/internal/page"
	"socrates/internal/simdisk"
	"socrates/internal/wal"
)

// errLZTimeout reports a landing-zone write that waited too long for
// destaging to free space (the §4.3 stall: "Socrates cannot process any
// update transactions once the LZ is full").
var errLZTimeout = errors.New("xlog: landing zone full (destaging stalled)")

const (
	lzHeaderSize = 64 // persisted ring header at offset 0
	lzDataStart  = int64(lzHeaderSize)
	entryMagic   = 0xE57A110C
	wrapMagic    = 0x77A9E0F1
	lzHdrMagic   = 0x1A4D107E

	// persistEvery bounds how stale the persisted ring header may get; the
	// scan on recovery covers at most this many entries past the header.
	persistEvery = 64
)

// LandingZone is the circular durable log buffer. The primary writes blocks
// synchronously (quorum on the underlying replicated volume); the XLOG
// process reads blocks to fill feed gaps; destaging releases space.
//
// The on-volume format is a sequential ring of entries
// [magic u32 | len u32 | encoded block], with a wrap marker where the ring
// returns to the start, and a small persisted header so a restarted process
// can rebuild its index by scanning — the "concurrent log readers without
// synchronization" property of §4.3.
type LandingZone struct {
	vol      simdisk.Volume
	capacity int64

	mu        sync.Mutex
	cond      *sync.Cond
	index     map[page.LSN]lzExtent // block start LSN → location
	order     []page.LSN            // starts in LSN order (ring occupancy)
	head      int64                 // next write offset
	tail      int64                 // oldest retained offset
	tailLSN   page.LSN              // start LSN of oldest retained block
	hardened  page.LSN              // end LSN of the durable *prefix*
	completed map[page.LSN]page.LSN // out-of-order completions: start → end
	writes    int
	stalls    int

	// waits records ring-full stalls under backpressure: the xlog tier's
	// recorder, set by the Service built over this landing zone.
	waits *obs.WaitRecorder
}

type lzExtent struct {
	off int64
	len int64
	end page.LSN
}

// NewLandingZone formats a fresh landing zone of the given capacity.
func NewLandingZone(vol simdisk.Volume, capacity int64) (*LandingZone, error) {
	if capacity < lzDataStart+4096 {
		return nil, fmt.Errorf("xlog: landing zone capacity %d too small", capacity)
	}
	lz := &LandingZone{
		vol: vol, capacity: capacity,
		index:     make(map[page.LSN]lzExtent),
		completed: make(map[page.LSN]page.LSN),
		head:      lzDataStart, tail: lzDataStart, tailLSN: 1, hardened: 1,
	}
	lz.cond = sync.NewCond(&lz.mu)
	if err := lz.persistHeader(); err != nil {
		return nil, err
	}
	return lz, nil
}

// header layout: magic u32 | tailOff i64 | tailLSN u64 | capacity i64
func (lz *LandingZone) persistHeader() error {
	buf := make([]byte, lzHeaderSize)
	binary.LittleEndian.PutUint32(buf[0:4], lzHdrMagic)
	binary.LittleEndian.PutUint64(buf[4:12], uint64(lz.tail))
	binary.LittleEndian.PutUint64(buf[12:20], lz.tailLSN.Uint64())
	binary.LittleEndian.PutUint64(buf[20:28], uint64(lz.capacity))
	return lz.vol.WriteAt(buf, 0)
}

// RecoverLandingZone rebuilds a landing zone's index by scanning the ring
// from the persisted tail until the write frontier (detected by a decode
// failure or an LSN discontinuity). This is how a restarted primary learns
// the hardened end of the log.
func RecoverLandingZone(vol simdisk.Volume, capacity int64) (*LandingZone, error) {
	head := make([]byte, lzHeaderSize)
	if err := vol.ReadAt(head, 0); err != nil {
		return nil, fmt.Errorf("xlog: reading LZ header: %w", err)
	}
	if binary.LittleEndian.Uint32(head[0:4]) != lzHdrMagic {
		return nil, errors.New("xlog: volume is not a landing zone")
	}
	lz := &LandingZone{
		vol: vol, capacity: capacity,
		index:     make(map[page.LSN]lzExtent),
		completed: make(map[page.LSN]page.LSN),
	}
	lz.cond = sync.NewCond(&lz.mu)
	lz.tail = int64(binary.LittleEndian.Uint64(head[4:12]))
	lz.tailLSN = page.LSN(binary.LittleEndian.Uint64(head[12:20]))
	lz.head = lz.tail
	lz.hardened = lz.tailLSN

	off := lz.tail
	expect := page.LSN(0) // first block's start unconstrained beyond >= tailLSN
	for {
		hdr := make([]byte, 8)
		if off+8 > lz.capacity {
			off = lzDataStart
		}
		if err := vol.ReadAt(hdr, off); err != nil {
			break
		}
		magic := binary.LittleEndian.Uint32(hdr[0:4])
		if magic == wrapMagic {
			off = lzDataStart
			continue
		}
		if magic != entryMagic {
			break
		}
		n := int64(binary.LittleEndian.Uint32(hdr[4:8]))
		if n <= 0 || off+8+n > lz.capacity {
			break
		}
		body := make([]byte, n)
		if err := vol.ReadAt(body, off+8); err != nil {
			break
		}
		b, consumed, err := wal.DecodeBlock(body)
		if err != nil || int64(consumed) != n {
			break
		}
		if expect != 0 && b.Start != expect {
			break // stale pre-wrap entry: we hit the frontier
		}
		if b.Start.Before(lz.tailLSN) {
			break
		}
		lz.index[b.Start] = lzExtent{off: off, len: 8 + n, end: b.End}
		lz.order = append(lz.order, b.Start)
		lz.hardened = b.End
		expect = b.End
		off += 8 + n
		lz.head = off
	}
	return lz, nil
}

// Reservation is ring space allocated for one block: Reserve in LSN order,
// then Complete (possibly concurrently) to perform the durable write. The
// split lets the log writer keep several quorum writes in flight — the
// source of Socrates' log throughput (Table 5) — while the ring layout and
// the hardened watermark stay in LSN order.
type Reservation struct {
	off     int64
	need    int64
	start   page.LSN
	end     page.LSN
	payload []byte
}

// Payload exposes the block's encoded bytes so callers (the lossy XLOG
// feed) can reuse them instead of re-encoding.
func (r *Reservation) Payload() []byte { return r.payload }

// Reserve allocates ring space for the block, waiting (bounded) for
// destaging when the ring is full. Callers must Reserve in LSN order.
func (lz *LandingZone) Reserve(b *wal.Block) (*Reservation, error) {
	payload := b.Encode()
	need := int64(len(payload)) + 8

	lz.mu.Lock()
	if lz.freeLocked() < need+8 { // +8 for a potential wrap marker
		// backpressure: the ring is full and the producer stalls until
		// destaging frees space (ReleaseUpTo broadcasts). Aggregate-only —
		// Reserve takes no request context (its caller is a group's
		// leader, not a request).
		lz.stalls++
		if err := lz.waits.CondWait(nil, obs.WaitBackpressure, lz.cond, time.Now().Add(5*time.Second),
			func() bool { return lz.freeLocked() >= need+8 }); err != nil {
			lz.mu.Unlock()
			return nil, errLZTimeout
		}
	}
	// Wrap if the entry does not fit before the end of the volume.
	if lz.head+need > lz.capacity {
		marker := make([]byte, 8)
		binary.LittleEndian.PutUint32(marker[0:4], wrapMagic)
		off := lz.head
		lz.mu.Unlock()
		if err := lz.vol.WriteAt(marker, off); err != nil {
			return nil, err
		}
		lz.mu.Lock()
		lz.head = lzDataStart
		if err := lz.persistHeader(); err != nil {
			lz.mu.Unlock()
			return nil, err
		}
	}
	off := lz.head
	lz.head += need
	lz.writes++
	lz.order = append(lz.order, b.Start)
	lz.mu.Unlock()
	return &Reservation{off: off, need: need, start: b.Start, end: b.End,
		payload: payload}, nil
}

// Complete performs the reservation's durable (quorum) write and advances
// the hardened prefix. Safe to call concurrently for different
// reservations.
func (lz *LandingZone) Complete(r *Reservation) error {
	entry := make([]byte, 8+len(r.payload))
	binary.LittleEndian.PutUint32(entry[0:4], entryMagic)
	binary.LittleEndian.PutUint32(entry[4:8], uint32(len(r.payload)))
	copy(entry[8:], r.payload)
	if err := lz.vol.WriteAt(entry, r.off); err != nil {
		return err
	}

	lz.mu.Lock()
	lz.index[r.start] = lzExtent{off: r.off, len: r.need, end: r.end}
	// Hardening is a *prefix* property: with concurrent in-flight writes,
	// a block is only considered hardened once every earlier block is
	// durable too — a commit may not be acknowledged over a hole.
	lz.completed[r.start] = r.end
	for {
		end, ok := lz.completed[lz.hardened]
		if !ok {
			break
		}
		delete(lz.completed, lz.hardened)
		lz.hardened = end
	}
	var persistErr error
	if lz.writes%persistEvery == 0 {
		persistErr = lz.persistHeader()
	}
	lz.mu.Unlock()
	return persistErr
}

// Write durably appends the block (Reserve + Complete). On return the block
// and every block before it are hardened.
func (lz *LandingZone) Write(b *wal.Block) error {
	r, err := lz.Reserve(b)
	if err != nil {
		return err
	}
	return lz.Complete(r)
}

// freeLocked computes free ring bytes. Caller holds lz.mu.
func (lz *LandingZone) freeLocked() int64 {
	if lz.head >= lz.tail {
		// Free space is the gap after head to capacity plus before tail,
		// but a single entry must fit contiguously before capacity or
		// entirely at the start.
		tailGap := lz.tail - lzDataStart
		headGap := lz.capacity - lz.head
		if headGap > tailGap {
			return headGap
		}
		return tailGap
	}
	return lz.tail - lz.head
}

// Read returns the block starting exactly at the given LSN, if retained,
// with the encoded image it was decoded from. The block's records alias
// the image (DESIGN §16.8), which is the caller's and is never written.
func (lz *LandingZone) Read(start page.LSN) (b *wal.Block, enc []byte, found bool, err error) {
	lz.mu.Lock()
	ext, ok := lz.index[start]
	lz.mu.Unlock()
	if !ok {
		return nil, nil, false, nil
	}
	buf := make([]byte, ext.len)
	if err := lz.vol.ReadAt(buf, ext.off); err != nil {
		return nil, nil, false, err
	}
	if binary.LittleEndian.Uint32(buf[0:4]) != entryMagic {
		return nil, nil, false, fmt.Errorf("xlog: LZ entry at %d corrupted", ext.off)
	}
	b, n, err := wal.DecodeBlock(buf[8:])
	if err != nil {
		return nil, nil, false, err
	}
	return b, buf[8 : 8+n], true, nil
}

// HardenedEnd reports the end LSN of the hardened log: every record below
// it is durable.
func (lz *LandingZone) HardenedEnd() page.LSN {
	lz.mu.Lock()
	defer lz.mu.Unlock()
	return lz.hardened
}

// ReleaseUpTo frees ring space for all blocks whose End is at or below lsn
// (they have been destaged to the SSD cache and LT). Space is reclaimed in
// LSN order.
func (lz *LandingZone) ReleaseUpTo(lsn page.LSN) {
	lz.mu.Lock()
	released := false
	for len(lz.order) > 0 {
		start := lz.order[0]
		ext, done := lz.index[start]
		if !done || ext.end.After(lsn) {
			break // reserved-but-unwritten space is never released
		}
		delete(lz.index, start)
		lz.order = lz.order[1:]
		lz.tail = ext.off + ext.len
		if lz.tail >= lz.capacity {
			lz.tail = lzDataStart
		}
		lz.tailLSN = ext.end
		released = true
	}
	if len(lz.order) == 0 {
		// Ring empty: reset to a clean state to maximize contiguous space.
		lz.tail = lz.head
	}
	if released {
		lz.cond.Broadcast()
	}
	lz.mu.Unlock()
}

// Stalls reports how many reservations waited for ring space (backpressure).
func (lz *LandingZone) Stalls() int {
	lz.mu.Lock()
	defer lz.mu.Unlock()
	return lz.stalls
}
