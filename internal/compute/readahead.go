package compute

import (
	"socrates/internal/btree"
	"socrates/internal/page"
)

// rangeFanout bounds how many read-ahead fetches are in flight at once; a
// hint that finds the window full is dropped. It is the B-tree's read-ahead
// distance — one scan can fill the window, never overrun it — and sits below
// the rbio client's per-destination in-flight cap (64), so read-ahead cannot
// trip backpressure for the misses somebody is waiting on.
const rangeFanout = btree.ReadAhead

// Prefetch starts fetching, in the background, those of ids that are neither
// cached nor being fetched already (btree.Prefetcher). Each goes the way of
// a miss — §4.5 registration, GetPage@LSN, queued redo, install — so the
// Read that follows finds the page cached or joins its registration. It
// never blocks: with rangeFanout fetches in flight the hint is dropped, and
// the Read fetches for itself as it always did.
func (f *remotePageFile) Prefetch(ids []page.ID) {
	for _, id := range ids {
		if f.cache.Contains(id) {
			continue
		}
		reg, dropped := f.registerAhead(id)
		if dropped {
			f.obs.Metrics.Counter("compute.readahead.dropped").Inc()
		}
		if reg == nil {
			continue
		}
		f.obs.Metrics.Counter("compute.readahead.issued").Inc()
		go f.readAhead(id, reg)
	}
}

// registerAhead registers a read-ahead fetch of the page and takes a slot of
// the window and of aheadWG for it. It returns nil when there is nothing to
// start: the page is being fetched already, the file is closed, or the
// window is full (dropped).
func (f *remotePageFile) registerAhead(id page.ID) (reg *registration, dropped bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, inFlight := f.pending[id]; inFlight || f.closed {
		return nil, false
	}
	select {
	case f.window <- struct{}{}:
	default:
		return nil, true
	}
	f.aheadWG.Add(1)
	reg = newRegistration(f.minLSNLocked(id), true)
	f.pending[id] = reg
	return reg, false
}

// readAhead is the body of one background fetch.
func (f *remotePageFile) readAhead(id page.ID, reg *registration) {
	defer f.aheadWG.Done()
	defer func() { <-f.window }()
	//socrates:ignore-err a failed hint costs nothing: the Read it was for fetches for itself and reports the error, if there still is one, to somebody who asked
	_, _ = f.fetch(f.ahead, id, reg, true)
}
