package compute

import (
	"socrates/internal/btree"
	"socrates/internal/page"
)

// rangeFanout bounds how many read-ahead fetches are in flight at once; a
// hint that finds the window full is dropped. It is the B-tree's read-ahead
// distance — one scan can fill the window, never overrun it — and sits below
// the netmux pool's in-flight cap, so read-ahead cannot trip backpressure
// for the misses somebody is waiting on.
const rangeFanout = btree.ReadAhead

// Prefetch starts fetching, in the background, those of ids that are neither
// cached nor being fetched already (btree.Prefetcher). Each goes the way of
// a miss — §4.5 registration, coalesced GetPage@LSN, queued redo, install —
// so the Read that follows finds the page cached or joins its flight. It
// never blocks: with rangeFanout fetches in flight the hint is dropped, and
// the Read fetches for itself as it always did.
func (f *RemotePageFile) Prefetch(ids []page.ID) {
	for _, id := range ids {
		if f.cache.Contains(id) {
			continue
		}
		reg, dropped := f.registerAhead(id)
		if dropped {
			f.obsReg.Counter("compute.readahead.dropped").Inc()
		}
		if reg == nil {
			continue
		}
		f.obsReg.Counter("compute.readahead.issued").Inc()
		go f.readAhead(id, reg)
	}
}

// registerAhead registers a read-ahead fetch of the page and takes a slot of
// the window and of aheadWG for it. It returns nil when there is nothing to
// start: the page is being fetched already, the file is closed, or the
// window is full (dropped).
func (f *RemotePageFile) registerAhead(id page.ID) (reg *registration, dropped bool) {
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
	reg = newRegistration(true)
	f.pending[id] = reg
	return reg, false
}

// readAhead is the body of one background fetch.
func (f *RemotePageFile) readAhead(id page.ID, reg *registration) {
	defer f.aheadWG.Done()
	defer func() { <-f.window }()
	// A failed hint costs nothing: the Read it was for fetches for itself
	// and reports the error, if there still is one, to somebody who asked.
	_, _ = f.fetch(f.ahead, id, reg, true)
}

// The unread set is how compute.readahead.joined counts the hints that paid
// off after their fetch had landed: a page read-ahead put in the cache is
// marked, and the first Read to hit it takes the mark and counts. (A Read
// that comes while the fetch is still in the air counts in register.) A page
// evicted from memory unread loses its mark — if it is read after all, from
// the SSD tier or by another fetch, read-ahead did not save that reader much.

// markUnreadLocked marks a page read-ahead has just cached; caller holds f.mu.
func (f *RemotePageFile) markUnreadLocked(id page.ID) {
	if _, ok := f.unread[id]; !ok {
		f.unread[id] = struct{}{}
		f.unreadN.Add(1)
	}
}

// forgetUnreadLocked drops the page's mark, if any; caller holds f.mu.
func (f *RemotePageFile) forgetUnreadLocked(id page.ID) {
	if _, ok := f.unread[id]; ok {
		delete(f.unread, id)
		f.unreadN.Add(-1)
	}
}

// noteReadAheadHit counts the first Read of a page that read-ahead brought
// into the cache.
func (f *RemotePageFile) noteReadAheadHit(id page.ID) {
	f.mu.Lock()
	_, hit := f.unread[id]
	f.forgetUnreadLocked(id)
	f.mu.Unlock()
	if hit {
		f.obsReg.Counter("compute.readahead.joined").Inc()
	}
}
