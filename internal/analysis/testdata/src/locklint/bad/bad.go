// Package bad is the lock-discipline fixture for deadlocklint's
// per-function checks: a leaked critical section, and a channel send and an
// I/O call under a lock. (Copied locks are go vet's copylocks.)
package bad

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

// Leak locks without ever unlocking.
func (c *Cache) Leak() int {
	c.mu.Lock() // want deadlocklint: never unlocked
	return len(c.m)
}

// SendWhileHeld sends on a channel inside the critical section.
func (c *Cache) SendWhileHeld(v int) {
	c.mu.Lock()
	c.ch <- v // want deadlocklint: send under lock
	c.mu.Unlock()
}

// SaveWhileHeld writes a file inside the critical section (the test
// configures os as an I/O package).
func (c *Cache) SaveWhileHeld(path string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return os.WriteFile(path, []byte{byte(len(c.m))}, 0o644) // want deadlocklint: I/O under lock
}
