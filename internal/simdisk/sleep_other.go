//go:build !linux

package simdisk

import (
	"sync/atomic"
	"time"
)

// spinTail is how close to its next deadline the sleep dispatcher stops
// parking and spins. Here the park is a Go timer, which can fire a
// millisecond or more late, so it is aimed 2 ms short of the deadline and
// the tail is 3 ms.
const spinTail = 3 * time.Millisecond

// wake cuts a park short. Its one slot keeps a wake-up sent before the park
// began, so none is lost; a stale one costs a spurious trip round the heap.
var wake = make(chan struct{}, 1)

// park blocks until the deadline next away is 2 ms off or unpark is called.
func park(_ *atomic.Uint32, _ uint32, next time.Duration) {
	t := time.NewTimer(next - 2*time.Millisecond)
	//socrates:wait-ok this IS the simulated device latency; the blocked time is charged as disk.read/disk.write at the request site
	select {
	case <-t.C:
	case <-wake:
	}
	t.Stop()
}

// unpark cuts a park short.
func unpark(*atomic.Uint32) {
	select {
	case wake <- struct{}{}:
	default:
	}
}
