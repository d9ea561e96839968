// Package clean is the lock-discipline fixture that deadlocklint's
// per-function checks leave silent: balanced critical sections, and sends
// and I/O outside them or as a select communication.
package clean

import (
	"os"
	"sync"
)

// Cache guards a map with a mutex.
type Cache struct {
	mu sync.Mutex
	m  map[int]int
	ch chan int
}

// ByPointer takes the lock owner by pointer and unlocks by defer.
func ByPointer(c *Cache) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// Balanced locks and unlocks inline.
func (c *Cache) Balanced(k, v int) {
	c.mu.Lock()
	c.m[k] = v
	c.mu.Unlock()
}

// Deferred unlocks in a deferred closure.
func (c *Cache) Deferred(k int) int {
	c.mu.Lock()
	defer func() { c.mu.Unlock() }()
	return c.m[k]
}

// SendOutside snapshots under the lock and sends after releasing it.
func (c *Cache) SendOutside(k int) {
	c.mu.Lock()
	v := c.m[k]
	c.mu.Unlock()
	c.ch <- v
}

// SendOrQuit sends as a select communication: a scheduling point by design.
func (c *Cache) SendOrQuit(v int, quit chan struct{}) {
	c.mu.Lock()
	defer c.mu.Unlock()
	select {
	case c.ch <- v:
	case <-quit:
	}
}

// SaveOutside snapshots under the lock and writes after releasing it.
func (c *Cache) SaveOutside(path string) error {
	c.mu.Lock()
	n := len(c.m)
	c.mu.Unlock()
	return os.WriteFile(path, []byte{byte(n)}, 0o644)
}
