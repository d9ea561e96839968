package simdisk

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"socrates/internal/obs"
)

// errQuorumLost is returned when a quorum write cannot reach enough replicas.
var errQuorumLost = errors.New("simdisk: write quorum lost")

// extent is a half-open byte range [off, end) on a replica.
type extent struct{ off, end int64 }

// extentSet is a sorted, merged set of non-overlapping extents. Sets stay
// tiny in practice (one dark window per chaos step), so linear ops suffice.
type extentSet []extent

// overlaps reports whether [off, end) intersects any extent in the set.
func (s extentSet) overlaps(off, end int64) bool {
	for _, e := range s {
		if e.off < end && off < e.end {
			return true
		}
	}
	return false
}

// add merges [off, end) into the set, coalescing adjacent extents.
func (s extentSet) add(off, end int64) extentSet {
	if off >= end {
		return s
	}
	out := s[:0]
	for _, e := range s {
		if e.end < off || end < e.off {
			out = append(out, e)
			continue
		}
		if e.off < off {
			off = e.off
		}
		if e.end > end {
			end = e.end
		}
	}
	out = append(out, extent{off, end})
	sort.Slice(out, func(i, j int) bool { return out[i].off < out[j].off })
	return out
}

// sub removes [off, end) from the set, splitting extents that straddle it.
func (s extentSet) sub(off, end int64) extentSet {
	if off >= end {
		return s
	}
	var out extentSet
	for _, e := range s {
		if e.end <= off || end <= e.off {
			out = append(out, e)
			continue
		}
		if e.off < off {
			out = append(out, extent{e.off, off})
		}
		if e.end > end {
			out = append(out, extent{end, e.end})
		}
	}
	return out
}

// Replicated is a quorum-replicated volume: the model for the landing zone
// (XIO keeps three replicas; a log block is "hardened" once a write quorum
// acknowledges it, §4.3). Writes go to all replicas in parallel and return
// when the quorum acks — a *flexible* quorum in the Taurus sense: any
// quorum-of-n replicas may form the ack set per write, so one stuttering
// replica never stalls commits. The volume tracks, per replica, the byte
// extents that failed to land (the replica was dark or erroring while a
// quorum-acked write went through). Reads never consult a replica over a
// range it missed — crucial because a healed replica's extent grows
// zero-filled, so a byte-range it missed reads as silent zeros, not an
// error — and Reconcile copies missed ranges back from healthy peers.
type Replicated struct {
	replicas []*Device
	quorum   int

	mu     sync.Mutex
	missed []extentSet // per-replica byte ranges that failed to land
}

// NewReplicated builds an n-way replicated volume over the profile with the
// given write quorum. Each replica gets an independent jitter stream so
// quorum writes genuinely wait for the q-th fastest replica.
func NewReplicated(p Profile, n, quorum int, opts ...Option) (*Replicated, error) {
	return NewReplicatedSeeded(p, n, quorum, 0, opts...)
}

// NewReplicatedSeeded is NewReplicated with every replica's jitter stream
// derived from one root seed via MixSeed, so a replicated volume is
// reproducible from a single integer. A zero seed keeps the historical
// fixed per-replica seeds (1..n).
func NewReplicatedSeeded(p Profile, n, quorum int, seed int64, opts ...Option) (*Replicated, error) {
	if n <= 0 || quorum <= 0 || quorum > n {
		return nil, fmt.Errorf("simdisk: invalid replication n=%d quorum=%d", n, quorum)
	}
	r := &Replicated{quorum: quorum, missed: make([]extentSet, n)}
	for i := 0; i < n; i++ {
		rs := int64(i + 1)
		if seed != 0 {
			rs = MixSeed(seed, int64(i+1))
		}
		seeded := append([]Option{WithSeed(rs)}, opts...)
		r.replicas = append(r.replicas, New(p, seeded...))
	}
	return r, nil
}

// Replicas exposes the underlying devices for failure injection in tests.
func (r *Replicated) Replicas() []*Device { return r.replicas }

// Quorum reports the write quorum size.
func (r *Replicated) Quorum() int { return r.quorum }

// WriteAt writes to all replicas and returns once the write quorum has
// acknowledged. The data lands on every healthy replica; the caller waits
// the latency of the quorum-th fastest acknowledgement, sampled from each
// replica's independent latency model. (A single sampled sleep replaces
// three concurrent timed waits — identical timing semantics at a third of
// the simulation's scheduling cost, which matters on small hosts.)
//
// A replica that fails the write while the quorum still acks has *missed*
// the extent: the miss is recorded so reads route around it and Reconcile
// can repair it. A replica that later takes a successful overlapping write
// has current data for that range again, so the miss is trimmed.
func (r *Replicated) WriteAt(p []byte, off int64) error {
	var lats []time.Duration
	var lastErr error
	ok := make([]bool, len(r.replicas))
	fails := 0
	for i, rep := range r.replicas {
		lat, err := rep.writeRaw(p, off)
		if err != nil {
			fails++
			lastErr = err
			continue
		}
		ok[i] = true
		lats = append(lats, lat)
	}
	q := r.effectiveQuorum()
	if len(lats) < q {
		return fmt.Errorf("%w: %d/%d replicas failed: %v",
			errQuorumLost, fails, len(r.replicas), lastErr)
	}
	end := off + int64(len(p))
	r.mu.Lock()
	for i := range r.replicas {
		if ok[i] {
			r.missed[i] = r.missed[i].sub(off, end)
		} else {
			r.missed[i] = r.missed[i].add(off, end)
		}
	}
	r.mu.Unlock()
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	SleepPrecise(lats[q-1])
	// One combined disk.write wait for the quorum write, mirroring the
	// single combined sleep above (per-replica writeRaw never sleeps).
	r.replicas[0].waits.Observe(nil, obs.WaitDiskWrite, lats[q-1])
	return nil
}

// ReadAt serves the read from the first replica that both succeeds and did
// not miss any write overlapping the range. The miss filter is what makes
// flexible quorums safe to read: a healed straggler's extent is zero-filled
// where it missed writes, so without the filter it would serve silent zeros
// for quorum-acked data. If every replica is filtered out (possible only
// below a 2-replica ack, i.e. under the planted chaosfault bug) the read
// falls through to any replica so the failure is visible as wrong data, not
// a hang.
func (r *Replicated) ReadAt(p []byte, off int64) error {
	end := off + int64(len(p))
	var firstErr error
	tried := 0
	for i, rep := range r.replicas {
		r.mu.Lock()
		miss := r.missed[i].overlaps(off, end)
		r.mu.Unlock()
		if miss {
			continue
		}
		tried++
		err := rep.ReadAt(p, off)
		if err == nil {
			return nil
		}
		if firstErr == nil {
			firstErr = err
		}
		if errors.Is(err, errOutOfRange) {
			// Replicas that did not miss a write in this range have the
			// full quorum-acked extent; out-of-range will not be cured by
			// another clean replica.
			return err
		}
	}
	if tried == 0 {
		for _, rep := range r.replicas {
			if err := rep.ReadAt(p, off); err == nil {
				return nil
			} else if firstErr == nil {
				firstErr = err
			}
		}
	}
	return firstErr
}

// Size reports the largest extent across replicas (quorum-acked data is
// present on at least quorum replicas).
func (r *Replicated) Size() int64 {
	var max int64
	for _, rep := range r.replicas {
		if s := rep.Size(); s > max {
			max = s
		}
	}
	return max
}

// AckedCopies reports how many replicas hold current data for the range
// [off, off+n): replicas whose extent covers the range and that missed no
// overlapping write. The chaos oracle uses it to prove every acked commit
// is on at least quorum replicas at harden time.
func (r *Replicated) AckedCopies(off, n int64) int {
	end := off + n
	count := 0
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, rep := range r.replicas {
		if rep.Size() < end {
			continue
		}
		if r.missed[i].overlaps(off, end) {
			continue
		}
		count++
	}
	return count
}

// MissedBytes reports the total bytes replica i is missing (diagnostics and
// straggler-reconciliation tests).
func (r *Replicated) MissedBytes(i int) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var total int64
	for _, e := range r.missed[i] {
		total += e.end - e.off
	}
	return total
}

// Reconcile repairs stragglers: for every replica with missed extents it
// copies the authoritative bytes from a peer that holds them, then clears
// the miss. Healing a replica (outage lifted, failover promotion) must call
// this before the replica serves reads. A replica still dark keeps its
// misses — writeRaw fails and the extent stays recorded — so calling
// Reconcile mid-outage is safe and does nothing destructive. Reports how
// many bytes were repaired.
func (r *Replicated) Reconcile() (repaired int64, err error) {
	r.mu.Lock()
	work := make([]extentSet, len(r.missed))
	for i, s := range r.missed {
		work[i] = append(extentSet(nil), s...)
	}
	r.mu.Unlock()
	for i, set := range work {
		for _, e := range set {
			src := -1
			r.mu.Lock()
			for j := range r.replicas {
				if j == i || r.missed[j].overlaps(e.off, e.end) {
					continue
				}
				if r.replicas[j].Size() >= e.end {
					src = j
					break
				}
			}
			r.mu.Unlock()
			if src < 0 {
				if err == nil {
					err = fmt.Errorf("%w: no clean source for replica %d range [%d,%d)",
						errQuorumLost, i, e.off, e.end)
				}
				continue
			}
			buf := make([]byte, e.end-e.off)
			r.replicas[src].mu.Lock()
			r.replicas[src].copyOut(buf, e.off)
			r.replicas[src].mu.Unlock()
			// writeRaw respects outage injection: a still-dark replica
			// refuses the repair and the miss stays recorded.
			if _, werr := r.replicas[i].writeRaw(buf, e.off); werr != nil {
				if err == nil {
					err = werr
				}
				continue
			}
			r.mu.Lock()
			r.missed[i] = r.missed[i].sub(e.off, e.end)
			r.mu.Unlock()
			repaired += e.end - e.off
		}
	}
	return repaired, err
}

// Volume is the interface shared by Device and Replicated: a durable,
// byte-addressable store. The landing zone and FCB layers accept a Volume so
// the storage service can be swapped without code changes (Appendix A).
type Volume interface {
	ReadAt(p []byte, off int64) error
	WriteAt(p []byte, off int64) error
	Size() int64
}

var (
	_ Volume = (*Device)(nil)
	_ Volume = (*Replicated)(nil)
)
