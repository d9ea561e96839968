package cluster

import (
	"fmt"
	"time"
)

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
