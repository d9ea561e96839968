// Package clean is the waitlint fixture: every blocking site is inside a
// WaitPoint region on all paths, inside a Wait closure, or carries a
// reviewed //socrates:wait-ok.
package clean

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

// Pop records its blocked time with the deferred-EndIf shape: the region
// stays open to function exit, so the cond wait is covered.
func (q *Q) Pop() int {
	region := q.rec.Begin("lock.row")
	waited := false
	defer func() { region.EndIf(waited) }()
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.n == 0 {
		waited = true
		q.cond.Wait()
	}
	q.n--
	return q.n
}

// Drain ends the region explicitly after the wait loop.
func (q *Q) Drain() {
	region := q.rec.Begin("ckpt.drain")
	q.mu.Lock()
	for q.n > 0 {
		q.cond.Wait()
	}
	q.mu.Unlock()
	region.End()
}

// Poll is an idle cadence tick: reviewed rather than recorded, so the
// taxonomy keeps measuring stalls, not idleness.
func (q *Q) Poll(done chan struct{}) {
	//socrates:wait-ok fixture idle cadence tick, not a stall
	select {
	case <-done:
	case <-time.After(time.Millisecond):
	}
}

// Push is a declared hot path whose latch is reviewed.
//
//socrates:hotpath fixture hot path with a reviewed latch
func (q *Q) Push(v int) {
	//socrates:wait-ok fixture bookkeeping latch held a few instructions
	q.mu.Lock()
	q.n += v
	q.mu.Unlock()
}

// Await blocks in the shared wait, which records under the class given.
func (q *Q) Await() error {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.rec.CondWait("xlog.feed", q.cond, func() bool { return q.n > 0 })
}

// Idle blocks in the shared wait charged to no class, reviewed.
func (q *Q) Idle() error {
	q.mu.Lock()
	defer q.mu.Unlock()
	//socrates:wait-ok fixture long poll's idle wait, not a stall
	return q.rec.CondWait(WaitNone, q.cond, func() bool { return q.n > 0 })
}

// Guarded is a hot path whose acquisition sits inside a lock.latch
// region, so contention is measured instead of reviewed.
//
//socrates:hotpath fixture hot path with an accounted latch
func (q *Q) Guarded() {
	region := q.rec.Begin("lock.latch")
	q.mu.Lock()
	region.End()
	q.n++
	q.mu.Unlock()
}

// AwaitLSN is the stand-in for the shared wait on a rung of the LSN ladder.
func (r *WaitRecorder) AwaitLSN(class string, lsn uint64) error { return nil }

// AwaitRung waits on a rung, recorded under the class given.
func (q *Q) AwaitRung() error { return q.rec.AwaitLSN("xlog.feed", 1) }

// IdleRung waits on a rung charged to no class, reviewed.
func (q *Q) IdleRung() error {
	//socrates:wait-ok fixture long poll's idle wait on a rung, not a stall
	return q.rec.AwaitLSN(WaitNone, 1)
}
