package pageserver

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"socrates/internal/rbio"
	"socrates/internal/simdisk"
	"socrates/internal/xstore"
)

// TestFailedPullsBackOff: a page server whose XLOG answers every pull with
// an error does not spin. Each failed pull is followed by the retry
// back-off, which the test holds: over each held window the server has made
// exactly one more pull, however long the window is.
func TestFailedPullsBackOff(t *testing.T) {
	var pulls atomic.Int32
	gate := make(chan struct{})
	net := rbio.NewInstantNetwork()
	net.Serve("xlog", func(context.Context, *rbio.Request) *rbio.Response {
		<-gate
		pulls.Add(1)
		return rbio.Errorf("xlog: down")
	})
	srv, err := New(Config{
		Name:            "ps-test",
		XLOG:            rbio.NewClient(net.Dial("xlog")),
		Store:           xstore.New(xstore.Config{Profile: simdisk.Instant}),
		CacheSSD:        simdisk.New(simdisk.Instant),
		CacheMeta:       simdisk.New(simdisk.Instant),
		CheckpointEvery: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Stop)

	held := make(chan int32)
	release := make(chan struct{})
	srv.retryWait = func(ctx context.Context) {
		select {
		case held <- pulls.Load():
		case <-ctx.Done():
			return
		}
		select {
		case <-release:
		case <-ctx.Done():
		}
	}
	close(gate) // the first pull is answered only once the hook is in place

	guard := time.NewTimer(5 * time.Second) // hang guard, not a threshold
	defer guard.Stop()
	for want := int32(1); want <= 5; want++ {
		select {
		case got := <-held:
			if got != want {
				t.Fatalf("back-off %d began after %d pulls, want %d", want, got, want)
			}
		case <-guard.C:
			t.Fatalf("back-off %d never began: the apply loop stopped pulling", want)
		}
		release <- struct{}{}
	}
}
