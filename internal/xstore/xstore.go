// Package xstore simulates Azure Storage (XStore): the cheap, durable,
// hard-disk-based, log-structured blob service that holds the "truth" of
// every Socrates database (§4.7).
//
// The store is log-structured (Rosenblum/Ousterhout style, as [19] in the
// paper): every write appends to a single device-backed log, and a blob is
// a list of extents into that log. This gives the two properties Socrates
// leans on:
//
//   - Snapshot is a constant-time metadata operation: it copies the blob map
//     (pointers into the log) and moves no data. Backups cost nothing on the
//     compute path (§3.5).
//   - Restore is likewise a metadata copy: new blobs are created pointing at
//     the snapshotted extents; copy-on-write falls out because new writes
//     always append fresh extents.
//
// The log is cut into fixed segments, and the store counts per segment the
// bytes some blob version still lists — a live blob's, a snapshot's, or one a
// read in flight has pinned. A segment no longer written to whose count
// reaches zero is given back to the device whole; Compact, the cleaner, moves
// what is left in sparse segments away so they can go too. Two streams write
// the log, each filling segments of its own: blob versions (Put, PutBatch),
// which the next version supersedes, and archives (Append), which nothing
// does — sharing segments, every checkpoint generation would stay pinned by
// the few bytes of log archive that landed between its pages.
//
// Throughput is capped by the HDD device profile plus an optional ingest
// limit on writes into the store — what throttles HADR's log backup in the
// paper's Table 5 experiment.
package xstore

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"socrates/internal/obs"
	"socrates/internal/simdisk"
)

// errNotFound is returned when a blob or snapshot does not exist.
var errNotFound = errors.New("xstore: not found")

// segSize is the unit the log is accounted and reclaimed in: four of the
// device's chunks, so a discarded segment frees exactly the memory it held.
// Small on purpose — a segment lives as long as its longest-lived byte.
const segSize = 4 * simdisk.ChunkSize

// cleanBelow is the cleaner's policy: Compact empties a segment no stream
// writes to any more when less than one byte in cleanBelow of those written
// into it is still live.
const cleanBelow = 4

// extent is a contiguous run of bytes in the store's log. Its position never
// changes; blob versions share it by pointer, and refs counts the versions
// that list it (live blobs, snapshots, reads in flight). Guarded by Store.mu.
type extent struct {
	off    int64
	length int64
	refs   int
}

// blobMeta describes one blob version as a list of extents.
type blobMeta struct {
	extents []*extent
	size    int64
}

// Config tunes a Store.
type Config struct {
	// Profile is the device model under the store. Defaults to simdisk.HDD.
	Profile simdisk.Profile
	// IngestMBps caps write bandwidth into the store (0 = uncapped).
	// This is the knob that throttles HADR log backups (Table 5).
	IngestMBps float64
	// Seed fixes device jitter for reproducible runs.
	Seed int64
	// Obs wires the store into the observability plane: write and read
	// latency/volume and the space accounting, under "xstore.".
	Obs obs.Plane
}

// Store is a simulated XStore account. All methods are safe for concurrent
// use.
type Store struct {
	dev    *simdisk.Device
	ingest *simdisk.TokenBucket

	reg *obs.Registry // Config.Obs.Metrics; nil-safe
	// The space accounting's instruments, looked up once: addLive moves
	// them under s.mu, once per extent let go.
	footprintBytes, garbageBytes *obs.Gauge
	reclaimedBytes               *obs.Counter

	mu        sync.Mutex
	blobs     map[string]*blobMeta
	snapshots map[string]map[string]*blobMeta // name -> the frozen namespace
	// Segment i covers log addresses [i*segSize, (i+1)*segSize).
	segs              []segment
	versions, archive stream
	written           int64 // bytes appended, ever
	live              int64 // sum of segs[i].live
	reclaimed         int64 // written bytes of the segments given back
}

// segment is the accounting of one segment: how many bytes were written
// into it, and how many of them an extent with refs > 0, or a write in
// flight, still holds.
type segment struct{ written, live int64 }

// stream is one of the log's append points: [next, limit) is what is left
// of the run of whole segments it is filling.
type stream struct{ next, limit int64 }

// New creates an empty store.
func New(cfg Config) *Store {
	p := cfg.Profile
	if p.Name == "" {
		p = simdisk.HDD
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	r := cfg.Obs.Metrics
	s := &Store{
		dev:            simdisk.New(p, simdisk.WithSeed(seed)),
		reg:            r,
		footprintBytes: r.Gauge("xstore.footprint_bytes"),
		garbageBytes:   r.Gauge("xstore.garbage_bytes"),
		reclaimedBytes: r.Counter("xstore.reclaimed.bytes"),
		blobs:          make(map[string]*blobMeta),
		snapshots:      make(map[string]map[string]*blobMeta),
	}
	if cfg.IngestMBps > 0 {
		s.ingest = simdisk.NewTokenBucket(cfg.IngestMBps * 1024 * 1024)
	}
	return s
}

// SetOutage injects or clears a sticky outage on the underlying device.
// Used to exercise the page-server insulation path (§4.6).
func (s *Store) SetOutage(on bool) { s.dev.SetOutage(on) }

// HoldWrites stalls the underlying device's write path until the returned
// release is called (simdisk.Device.HoldWrites): the write in flight, for
// tests that pin down what a checkpoint does while one is.
func (s *Store) HoldWrites() (release func()) { return s.dev.HoldWrites() }

// Stats reports cumulative device reads, writes, bytes read, bytes written.
func (s *Store) Stats() (reads, writes, bytesRead, bytesWritten int64) {
	return s.dev.Stats()
}

// reserve gives n bytes of st's run to a write, opening a new run of whole
// segments at the end of the log when they do not fit what is left of the
// current one (which is then never written). The bytes count as live from
// here on — a segment must not be given back with a write into it in flight.
// Caller holds s.mu.
func (s *Store) reserve(st *stream, n int64) int64 {
	if st.next+n > st.limit {
		left, abandoned := st.next < st.limit, st.next/segSize
		st.next = int64(len(s.segs)) * segSize
		s.segs = append(s.segs, make([]segment, (n+segSize-1)/segSize)...)
		st.limit = int64(len(s.segs)) * segSize
		if left {
			// The segment the stream leaves unfinished may have emptied
			// while it was still being filled.
			s.reclaim(abandoned)
		}
	}
	off := st.next
	st.next += n
	s.written += n
	eachSegment(off, n, func(seg, part int64) { s.segs[seg].written += part })
	s.addLive(off, n)
	return off
}

// eachSegment visits the segments log bytes [off, off+n) lie in, with how
// many of the bytes lie in each.
func eachSegment(off, n int64, visit func(seg, part int64)) {
	for end := off + n; off < end; {
		seg := off / segSize
		part := min(end, (seg+1)*segSize) - off
		visit(seg, part)
		off += part
	}
}

// open reports whether a stream may still write into segment seg. Caller
// holds s.mu.
func (s *Store) open(seg int64) bool {
	in := func(st stream) bool { return seg*segSize < st.limit && st.next < (seg+1)*segSize }
	return in(s.versions) || in(s.archive)
}

// reclaim gives segment seg back to the device if nothing holds a byte of
// it and no stream will write to it again. Caller holds s.mu.
func (s *Store) reclaim(seg int64) {
	g := &s.segs[seg]
	if g.live != 0 || g.written == 0 || s.open(seg) {
		return
	}
	s.dev.Discard(seg*segSize, segSize)
	s.reclaimed += g.written
	s.reclaimedBytes.Add(uint64(g.written))
	g.written = 0
}

// addLive moves the live count of log bytes [off, off+n) by n's sign: up
// when a write reserves them, down when the last version listing them goes —
// which may be what empties their segment. Caller holds s.mu.
func (s *Store) addLive(off, n int64) {
	sign := int64(1)
	if n < 0 {
		sign, n = -1, -n
	}
	s.live += sign * n
	eachSegment(off, n, func(seg, part int64) {
		s.segs[seg].live += sign * part
		if sign < 0 {
			s.reclaim(seg)
		}
	})
	footprint := s.written - s.reclaimed
	s.footprintBytes.Set(footprint)
	s.garbageBytes.Set(footprint - s.live)
}

// hold returns a second listing of b's extents — a snapshot's copy, a
// restored blob, the pin of a read in flight. Caller holds s.mu.
func (s *Store) hold(b *blobMeta) *blobMeta {
	c := &blobMeta{size: b.size}
	c.extents = append([]*extent(nil), b.extents...)
	for _, e := range c.extents {
		e.refs++
	}
	return c
}

// drop ends a version's listing of its extents; the bytes of an extent
// nothing lists any more stop being live. Caller holds s.mu.
func (s *Store) drop(b *blobMeta) {
	for _, e := range b.extents {
		s.unref(e)
	}
}

func (s *Store) unref(e *extent) {
	if e.refs--; e.refs == 0 {
		s.addLive(e.off, -e.length)
	}
}

// install makes b the live version of the named blob. The bytes of b's
// extents are already live (their write reserved them), so dropping the
// version it replaces can empty a segment without touching them. Caller
// holds s.mu.
func (s *Store) install(name string, b *blobMeta) {
	if old := s.blobs[name]; old != nil {
		s.drop(old)
	}
	s.blobs[name] = b
}

// appendLog writes data at st's end of the log and returns where. The bytes
// are live from the moment they are reserved, so the caller owes them an
// extent (or addLive(off, -len) if it has none to give). Callers must not
// hold s.mu (device I/O sleeps).
func (s *Store) appendLog(st *stream, data []byte) (int64, error) {
	start := time.Now()
	n := int64(len(data))
	if s.ingest != nil {
		s.ingest.Acquire(len(data))
	}
	s.mu.Lock()
	off := s.reserve(st, n)
	s.mu.Unlock()
	if err := s.dev.WriteAt(data, off); err != nil {
		s.mu.Lock()
		s.addLive(off, -n)
		s.mu.Unlock()
		return 0, err
	}
	s.reg.Histogram("xstore.write.latency").Since(start)
	s.reg.Counter("xstore.write.bytes").Add(uint64(n))
	s.reg.Counter("xstore.write.ops").Inc()
	return off, nil
}

// BatchBlob names one blob of a PutBatch and the length of its image.
type BatchBlob struct {
	Name string
	Len  int
}

// PutBatch stores complete new versions of several blobs as one write: buf
// holds their images back to back in the order of blobs. It costs one ingest
// acquire and one device write, and the blob map switches for the whole
// batch in one critical section after that write succeeds — a snapshot, a
// reader or an outage sees every blob of the batch at its new version or
// none. This is the page servers' checkpoint write (§4.6).
func (s *Store) PutBatch(buf []byte, blobs []BatchBlob) error {
	total := 0
	for _, b := range blobs {
		total += b.Len
	}
	if total != len(buf) {
		return fmt.Errorf("xstore: batch of %d bytes names %d", len(buf), total)
	}
	off, err := s.appendLog(&s.versions, buf)
	if err != nil {
		return err
	}
	// One slab each for the batch's versions, extents and extent lists.
	metas := make([]blobMeta, len(blobs))
	exts := make([]extent, len(blobs))
	lists := make([]*extent, len(blobs))
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, b := range blobs {
		exts[i] = extent{off: off, length: int64(b.Len), refs: 1}
		lists[i] = &exts[i]
		metas[i] = blobMeta{extents: lists[i : i+1 : i+1], size: int64(b.Len)}
		s.install(b.Name, &metas[i])
		off += int64(b.Len)
	}
	return nil
}

// Append adds data to the end of the named blob, creating it if absent.
// This is the LT log-archive write path: destaging appends log ranges.
func (s *Store) Append(name string, data []byte) error {
	off, err := s.appendLog(&s.archive, data)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	b := s.blobs[name]
	if b == nil {
		b = &blobMeta{}
		s.blobs[name] = b
	}
	b.extents = append(b.extents, &extent{off: off, length: int64(len(data)), refs: 1})
	b.size += int64(len(data))
	return nil
}

// pin looks a live blob up and holds its extents for the length of a
// read, so that an overwrite or the cleaner cannot give its segments back
// under the device reads; unpin lets go.
func (s *Store) pin(name string) (*blobMeta, bool) {
	b, ok := s.blobs[name]
	if !ok {
		return nil, false
	}
	return s.hold(b), true
}

func (s *Store) unpin(b *blobMeta) {
	s.mu.Lock()
	s.drop(b)
	s.mu.Unlock()
}

// Get returns the full contents of the named blob.
func (s *Store) Get(name string) ([]byte, error) {
	s.mu.Lock()
	meta, ok := s.pin(name)
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: blob %q", errNotFound, name)
	}
	defer s.unpin(meta)
	return s.readMeta(meta, 0, meta.size)
}

// ReadAt reads length bytes from the blob starting at off.
func (s *Store) ReadAt(name string, off, length int64) ([]byte, error) {
	s.mu.Lock()
	meta, ok := s.pin(name)
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: blob %q", errNotFound, name)
	}
	defer s.unpin(meta)
	if off < 0 || off+length > meta.size {
		return nil, fmt.Errorf("xstore: read [%d,%d) beyond blob %q size %d",
			off, off+length, name, meta.size)
	}
	return s.readMeta(meta, off, length)
}

// readMeta gathers [off, off+length) across the extents of a pinned version.
func (s *Store) readMeta(b *blobMeta, off, length int64) ([]byte, error) {
	start := time.Now()
	defer func() {
		s.reg.Histogram("xstore.read.latency").Since(start)
		s.reg.Counter("xstore.read.ops").Inc()
	}()
	s.reg.Counter("xstore.read.bytes").Add(uint64(length))
	out := make([]byte, 0, length)
	pos := int64(0)
	for _, e := range b.extents {
		if length == 0 {
			break
		}
		if off >= pos+e.length {
			pos += e.length
			continue
		}
		start := off - pos
		if start < 0 {
			start = 0
		}
		n := e.length - start
		if n > length {
			n = length
		}
		buf := make([]byte, n)
		if err := s.dev.ReadAt(buf, e.off+start); err != nil {
			return nil, err
		}
		out = append(out, buf...)
		off += n
		length -= n
		pos += e.length
	}
	if length != 0 {
		return nil, fmt.Errorf("xstore: short read, %d bytes missing", length)
	}
	return out, nil
}

// Size reports the size of the named blob.
func (s *Store) Size(name string) (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.blobs[name]
	if !ok {
		return 0, fmt.Errorf("%w: blob %q", errNotFound, name)
	}
	return b.size, nil
}

// Exists reports whether the named blob exists.
func (s *Store) Exists(name string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.blobs[name]
	return ok
}

// List returns the names of blobs with the given prefix, sorted.
func (s *Store) List(prefix string) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var names []string
	for n := range s.blobs {
		if strings.HasPrefix(n, prefix) {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names
}

// Snapshot freezes the current blob namespace under the given snapshot
// name. It is a metadata-only operation: no data moves, regardless of how
// many terabytes the blobs hold (§3.5, §4.7).
func (s *Store) Snapshot(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	snap := make(map[string]*blobMeta, len(s.blobs))
	for n, b := range s.blobs {
		snap[n] = s.hold(b)
	}
	s.snapshots[name] = snap
	s.reg.Counter("xstore.snapshot.count").Inc()
	return nil
}

// DeleteSnapshot removes a snapshot; segments only it was keeping go back
// to the device.
func (s *Store) DeleteSnapshot(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	snap, ok := s.snapshots[name]
	if !ok {
		return fmt.Errorf("%w: snapshot %q", errNotFound, name)
	}
	delete(s.snapshots, name)
	for _, b := range snap {
		s.drop(b)
	}
	return nil
}

// Restore materializes the blobs captured by the snapshot as new live blobs
// named dstPrefix+originalName. Like Snapshot, this is a constant-time
// metadata copy — the restored blobs alias the snapshotted extents, which is
// what lets a PITR of a 100 TB database start in minutes (§4.7).
func (s *Store) Restore(snapName, dstPrefix string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	snap, ok := s.snapshots[snapName]
	if !ok {
		return fmt.Errorf("%w: snapshot %q", errNotFound, snapName)
	}
	for n, b := range snap {
		nb := s.hold(b)
		s.install(dstPrefix+n, nb)
	}
	return nil
}

// LiveBytes reports bytes reachable from live blobs (not snapshots).
func (s *Store) LiveBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var total int64
	for _, b := range s.blobs {
		total += b.size
	}
	return total
}

// eachVersion visits every blob version the store keeps: the live blobs and
// each snapshot's. Caller holds s.mu.
func (s *Store) eachVersion(visit func(*blobMeta)) {
	for _, b := range s.blobs {
		visit(b)
	}
	for _, snap := range s.snapshots {
		for _, b := range snap {
			visit(b)
		}
	}
}

// Compact is the cleaner (Rosenblum/Ousterhout's, as the LT blob cleanup job
// of §4.3 needs it): every extent that touches a sparse segment (cleanBelow)
// is copied to the end of the archive stream — what outlived its neighbours
// is cold — the versions listing it are switched to the copy, and the
// segment, now empty, goes back to the device. It costs O(survivors) I/O,
// not O(live data); a store with no sparse segment is left alone.
func (s *Store) Compact() error {
	// Phase 1: under the lock, pin the extents to move.
	s.mu.Lock()
	sparse := func(e *extent) (found bool) {
		eachSegment(e.off, e.length, func(seg, _ int64) {
			g := s.segs[seg]
			found = found || g.live*cleanBelow < g.written && !s.open(seg)
		})
		return found
	}
	moved := make(map[*extent]*extent)
	s.eachVersion(func(b *blobMeta) {
		for _, e := range b.extents {
			if _, seen := moved[e]; !seen && sparse(e) {
				e.refs++
				moved[e] = nil
			}
		}
	})
	s.mu.Unlock()

	// Phase 2: copy each to the head. Writers keep appending around the
	// copies and readers keep reading the originals, which the pins hold.
	var err error
	for e := range moved {
		buf := make([]byte, e.length)
		if err = s.dev.ReadAt(buf, e.off); err != nil {
			break
		}
		var off int64
		if off, err = s.appendLog(&s.archive, buf); err != nil {
			break
		}
		moved[e] = &extent{off: off, length: e.length}
	}

	// Phase 3: switch every version that lists a copied extent — whoever
	// took a snapshot or restored one meanwhile included — and let the
	// originals go. A copy nothing lists any more gives its bytes back.
	s.mu.Lock()
	defer s.mu.Unlock()
	s.eachVersion(func(b *blobMeta) {
		for i, e := range b.extents {
			if ne := moved[e]; ne != nil {
				ne.refs++
				b.extents[i] = ne
				s.unref(e)
			}
		}
	})
	for e, ne := range moved {
		s.unref(e)
		if ne != nil && ne.refs == 0 {
			s.addLive(ne.off, -ne.length)
		}
	}
	return err
}
