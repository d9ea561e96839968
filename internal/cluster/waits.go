package cluster

import (
	"fmt"
	"time"
)

// This file holds the deadline-bounded condition waits tests and the
// chaos harness lean on instead of fixed wall-clock sleeps: each waits on a
// cluster-visible condition — polling it (a watermark rung, a seeding
// flag) or, where the tier signals it itself (a page server's drained dirty
// set), on that signal — and fails loudly with the observed state on
// timeout, so a slow CI machine stretches the wait instead of flaking the
// test.

const waitPollInterval = time.Millisecond

// WaitPageServersSeeded blocks until no page server is still seeding its
// partition (freshly added replicas copy their baseline in the
// background) or the timeout elapses.
func (c *Cluster) WaitPageServersSeeded(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		seeding := 0
		for _, srv := range c.PageServers() {
			if srv.Seeding() {
				seeding++
			}
		}
		if seeding == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("cluster: %d page server(s) still seeding after %v", seeding, timeout)
		}
		time.Sleep(waitPollInterval) //socrates:sleep-ok deadline-bounded poll for background seeding
	}
}

// WaitCheckpointDrain blocks until every page server's dirty set has been
// checkpointed to XStore (the checkpoint rung of the watermark ladder has
// caught its applied rung) or the timeout elapses. Each server is asked to
// drain and waited for on its own signal; nothing here polls.
func (c *Cluster) WaitCheckpointDrain(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for _, srv := range c.PageServers() {
		if err := srv.WaitCheckpointDrain(time.Until(deadline)); err != nil {
			return fmt.Errorf("cluster: checkpoint drain: %w", err)
		}
	}
	return nil
}
