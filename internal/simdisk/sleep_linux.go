// The constraint repeats the file suffix for socrates-vet's loader, which
// reads //go:build lines but not file names.

//go:build linux

package simdisk

import (
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// spinTail is how close to its next deadline the sleep dispatcher stops
// parking and spins. A futex timeout fires up to the thread's timer slack
// late — 50 µs by default (/proc/self/timerslack_ns) — so parking until
// spinTail short of the deadline and spinning the rest wakes waiters on
// time. A 30 µs tail, or none, let read-miss waiters wake late enough to
// cost 8–22% of its throughput; 80–150 µs tails hold latency but spin more.
const spinTail = 50 * time.Microsecond

const (
	futexWaitPrivate = 0 | 128 // FUTEX_WAIT | FUTEX_PRIVATE_FLAG
	futexWakePrivate = 1 | 128 // FUTEX_WAKE | FUTEX_PRIVATE_FLAG
)

// park blocks the dispatcher's thread in the kernel until the deadline next
// away is spinTail off or unpark is called; it returns at once if word no
// longer holds val. Go's timers cannot do this: an idle runtime blocks in
// epoll_wait, and netpoll rounds any timeout under 1 ms up to 1 ms.
func park(word *atomic.Uint32, val uint32, next time.Duration) {
	d := next - spinTail
	if d <= 0 {
		return
	}
	ts := syscall.NsecToTimespec(int64(d))
	// EAGAIN (word moved on), EINTR and ETIMEDOUT all send the dispatcher
	// back to the heap, which is where it goes anyway.
	syscall.Syscall6(syscall.SYS_FUTEX, uintptr(unsafe.Pointer(word)),
		futexWaitPrivate, uintptr(val), uintptr(unsafe.Pointer(&ts)), 0, 0)
}

// unpark wakes a dispatcher parked on word; the caller has moved word on
// first, so a park that has not begun yet returns at once instead.
func unpark(word *atomic.Uint32) {
	syscall.Syscall6(syscall.SYS_FUTEX, uintptr(unsafe.Pointer(word)),
		futexWakePrivate, 1, 0, 0, 0)
}
