package txn

import (
	"errors"
	"sync"
	"testing"
)

func TestClockSnapshotSeesOnlyPublished(t *testing.T) {
	c := NewClock()
	if c.Snapshot() != 0 {
		t.Fatal("fresh clock should snapshot at 0")
	}
	ts := c.AllocateCommit()
	if ts != 1 {
		t.Fatalf("first commit ts = %d", ts)
	}
	if c.Snapshot() != 0 {
		t.Fatal("unpublished commit visible")
	}
	c.Publish(ts)
	if c.Snapshot() != 1 {
		t.Fatalf("snapshot = %d after publish", c.Snapshot())
	}
}

func TestClockPublishNeverRegresses(t *testing.T) {
	c := NewClock()
	c.Publish(10)
	c.Publish(5)
	if c.Visible() != 10 {
		t.Fatalf("visible = %d", c.Visible())
	}
	// Allocation continues above published watermark.
	if ts := c.AllocateCommit(); ts != 11 {
		t.Fatalf("next allocation = %d, want 11", ts)
	}
}

func TestClockOutOfOrderPublish(t *testing.T) {
	c := NewClock()
	t1 := c.AllocateCommit()
	t2 := c.AllocateCommit()
	c.Publish(t2) // hardened as a group: t2's publish implies t1 durable
	if c.Snapshot() != t2 {
		t.Fatalf("snapshot = %d", c.Snapshot())
	}
	c.Publish(t1) // late publish is a no-op
	if c.Snapshot() != t2 {
		t.Fatalf("snapshot regressed to %d", c.Snapshot())
	}
}

func TestClockConcurrentAllocationsAreUnique(t *testing.T) {
	c := NewClock()
	var mu sync.Mutex
	seen := map[uint64]bool{}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				ts := c.AllocateCommit()
				mu.Lock()
				if seen[ts] {
					t.Errorf("duplicate ts %d", ts)
				}
				seen[ts] = true
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
}

func TestLockAcquireConflict(t *testing.T) {
	lt := NewLockTable()
	if err := lt.Acquire("t1|k", 1); err != nil {
		t.Fatal(err)
	}
	if err := lt.Acquire("t1|k", 1); err != nil {
		t.Fatal("re-acquire by holder should succeed")
	}
	if err := lt.Acquire("t1|k", 2); !errors.Is(err, ErrWriteConflict) {
		t.Fatalf("err = %v, want ErrWriteConflict", err)
	}
	// Different key is free.
	if err := lt.Acquire("t1|other", 2); err != nil {
		t.Fatal(err)
	}
}

func TestLockReleaseAll(t *testing.T) {
	lt := NewLockTable()
	_ = lt.Acquire("a", 1)
	_ = lt.Acquire("b", 1)
	_ = lt.Acquire("c", 2)
	lt.ReleaseAll([]string{"a", "b", "c"}, 1) // must not steal txn 2's lock
	if err := lt.Acquire("a", 3); err != nil {
		t.Fatal("released lock not acquirable")
	}
	if err := lt.Acquire("c", 3); !errors.Is(err, ErrWriteConflict) {
		t.Fatal("txn 2's lock was stolen by ReleaseAll(1)")
	}
	if len(lt.locks) != 2 { // "a" re-acquired by txn 3, "c" still held by txn 2
		t.Fatalf("held = %d", len(lt.locks))
	}
}

func TestLockTableConcurrency(t *testing.T) {
	lt := NewLockTable()
	var wg sync.WaitGroup
	acquired := make([]int, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			id := uint64(w + 1)
			for k := 0; k < 100; k++ {
				key := string(rune('a' + k%16))
				if lt.Acquire(key, id) == nil {
					acquired[w]++
					lt.ReleaseAll([]string{key}, id)
				}
			}
		}(w)
	}
	wg.Wait()
	total := 0
	for _, n := range acquired {
		total += n
	}
	if total == 0 {
		t.Fatal("no locks acquired under contention")
	}
	if len(lt.locks) != 0 {
		t.Fatalf("leaked %d locks", len(lt.locks))
	}
}

func TestIDSourceUnique(t *testing.T) {
	var src IDSource
	a, b := src.Next(), src.Next()
	if a == 0 || b == 0 || a == b {
		t.Fatalf("ids = %d, %d", a, b)
	}
}
