//go:build chaosfault

package engine

import (
	"context"

	"socrates/internal/page"
)

// waitHarden under the chaosfault tag PLANTS A BUG on purpose: it
// acknowledges the commit without waiting for the log pipeline to harden
// it. An acked-but-unhardened commit is exactly the durability violation
// the Socrates protocol exists to prevent (§4.3: a commit returns only
// after the landing-zone quorum acks). The chaos harness's self-test
// builds with this tag and asserts that the oracle flags the resulting
// lost writes after a failover — proving the oracle has teeth.
//
// The wait itself still runs, on its own goroutine: the log writer's
// committers write the log (a group is written by the first caller that
// waits on it), so a plant that never waited would leave every group
// unwritten and the oracle would pass for the wrong reason. The block
// reaches the landing zone; the ack simply does not wait for it.
//
// Never ship a binary built with this tag.
func waitHarden(_ context.Context, e *Engine, lsn page.LSN) error {
	go func() {
		//socrates:ignore-err the planted bug acks before this outcome is known; a failed write is what the oracle must catch
		_ = e.cfg.Log.WaitHarden(context.Background(), lsn)
	}()
	return nil
}
