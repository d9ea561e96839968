// Package bad is the waitlint fixture: blocking sites with no WaitPoint
// region, no Wait closure, and no review annotation.
package bad

import (
	"sync"
	"time"
)

// WaitRegion and WaitRecorder are structural stand-ins for the obs types:
// waitlint matches WaitPoint calls by type name so fixtures stay
// self-contained.
type WaitRegion struct{ open bool }

// End closes the region.
func (r *WaitRegion) End() {}

// EndIf closes the region, recording only if waited.
func (r *WaitRegion) EndIf(waited bool) {}

// WaitRecorder is the stand-in recorder.
type WaitRecorder struct{}

// Begin opens a region.
func (r *WaitRecorder) Begin(class string) *WaitRegion { return &WaitRegion{} }

// WaitNone is the stand-in for obs.WaitNone: the class that records nothing.
const WaitNone = ""

// CondWait is the stand-in for the shared bounded wait, which records its
// blocked time under class.
func (r *WaitRecorder) CondWait(class string, c *sync.Cond, ready func() bool) error { return nil }

// Q is a tiny blocking queue.
type Q struct {
	mu   sync.Mutex
	cond *sync.Cond
	n    int
	rec  WaitRecorder
}

// Pop blocks on the cond with no region: flagged.
func (q *Q) Pop() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.n == 0 {
		q.cond.Wait()
	}
	q.n--
	return q.n
}

// Poll waits on a timer-driven select with no region: flagged once, at
// the select.
func (q *Q) Poll(done chan struct{}) {
	select {
	case <-done:
	case <-time.After(time.Millisecond):
	}
}

// Backoff does a bare time.After receive: flagged.
func (q *Q) Backoff() {
	<-time.After(time.Millisecond)
}

// Tick receives from a ticker channel: flagged.
func (q *Q) Tick(t *time.Ticker) {
	<-t.C
}

// Push is a declared hot path taking the latch with no region and no
// annotation: flagged.
//
//socrates:hotpath fixture hot path
func (q *Q) Push(v int) {
	q.mu.Lock()
	q.n += v
	q.mu.Unlock()
}

// Closed opens a region but ends it before the wait: flagged.
func (q *Q) Closed() {
	region := q.rec.Begin("lock.row")
	region.End()
	q.mu.Lock()
	for q.n == 0 {
		q.cond.Wait()
	}
	q.mu.Unlock()
}

// OneArm opens the region on only one branch: the must-analysis flags
// the wait because the fast path reaches it uncovered.
func (q *Q) OneArm(fast bool) {
	var region *WaitRegion
	if !fast {
		region = q.rec.Begin("lock.row")
	}
	q.mu.Lock()
	for q.n == 0 {
		q.cond.Wait()
	}
	q.mu.Unlock()
	if region != nil {
		region.End()
	}
}

// Unrecorded blocks in the shared wait charged to no class, unreviewed:
// flagged, at the call.
func (q *Q) Unrecorded() error {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.rec.CondWait(WaitNone, q.cond, func() bool { return q.n > 0 })
}

// AwaitLSN is the stand-in for the shared wait on a rung of the LSN ladder.
func (r *WaitRecorder) AwaitLSN(class string, lsn uint64) error { return nil }

// UnrecordedRung waits on a rung charged to no class, unreviewed: flagged.
func (q *Q) UnrecordedRung() error { return q.rec.AwaitLSN(WaitNone, 1) }
