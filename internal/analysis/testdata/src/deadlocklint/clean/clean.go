// Package clean is the deadlocklint fixture that stays silent: one
// global lock order, fabric calls outside critical sections, and one
// reviewed exception with its reason.
package clean

import "sync"

// A and B always lock in the order A before B.
type A struct {
	mu sync.Mutex
	b  *B
}

type B struct {
	mu sync.Mutex
}

// Both acquires in the global order.
func (a *A) Both() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.b.mu.Lock()
	a.b.mu.Unlock()
}

// AlsoBoth uses the same order, so no cycle forms.
func (a *A) AlsoBoth() {
	a.mu.Lock()
	a.b.mu.Lock()
	a.b.mu.Unlock()
	a.mu.Unlock()
}

// Call stands in for a netmux fabric entry point.
func Call(req []byte) []byte { return req }

// SendOutsideLock snapshots under the lock, releases, then calls.
func (a *A) SendOutsideLock(req []byte) []byte {
	a.mu.Lock()
	snapshot := append([]byte(nil), req...)
	a.mu.Unlock()
	return Call(snapshot)
}

// SendReviewed is the annotated exception: the call is a local loopback
// in this fixture, so holding the lock is reviewed and accepted.
func (a *A) SendReviewed(req []byte) []byte {
	a.mu.Lock()
	defer a.mu.Unlock()
	//socrates:lock-ok fixture loopback call cannot block on a remote peer
	return Call(req)
}

// Q is a queue with a drainer: round is always taken before mu.
type Q struct {
	round sync.Mutex
	mu    sync.Mutex
	n     int
}

func (q *Q) drain() {
	q.round.Lock()
	defer q.round.Unlock()
	q.mu.Lock()
	q.n = 0
	q.mu.Unlock()
}

// pushLocked starts the drainer; its caller holds mu.
func (q *Q) pushLocked() {
	q.n++
	go q.drain()
}

// Push holds mu across a call that reaches round's acquisition only through
// a go statement. The call graph cannot tell starting from running, so the
// call site carries the reviewed exception.
func (q *Q) Push() {
	q.mu.Lock()
	defer q.mu.Unlock()
	//socrates:lock-ok pushLocked only starts the drainer; round is taken on the drainer's goroutine
	q.pushLocked()
}
