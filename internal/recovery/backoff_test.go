package recovery_test

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"socrates/internal/compute"
	"socrates/internal/engine"
	"socrates/internal/fcb"
	"socrates/internal/page"
	"socrates/internal/pageserver"
	"socrates/internal/rbio"
	"socrates/internal/recovery"
	"socrates/internal/simdisk"
	"socrates/internal/xstore"
)

// TestFailedPullsBackOff: a consumer whose XLOG answers every pull with an
// error does not spin. Each failed pull of the online loop is followed by
// the retry back-off, which the test holds: over each held window the
// consumer has made exactly one more pull, however long the window is. The
// page server and the secondary share the loop, and both are held to it.
func TestFailedPullsBackOff(t *testing.T) {
	for _, c := range []struct {
		name  string
		start func(t *testing.T, net *rbio.Network) (stop func())
	}{
		{"pageserver", func(t *testing.T, net *rbio.Network) func() {
			srv, err := pageserver.New(pageserver.Config{
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
			return srv.Stop
		}},
		{"secondary", func(t *testing.T, net *rbio.Network) func() {
			// The secondary's engine reads the catalog when it opens: serve
			// a freshly created database's pages.
			pages := fcb.NewMemFile()
			if _, err := engine.Create(engine.Config{Pages: pages, Log: engine.NewMemPipeline()}); err != nil {
				t.Fatal(err)
			}
			net.Serve("ps", func(_ context.Context, req *rbio.Request) *rbio.Response {
				pg, err := pages.Read(req.Page)
				if err != nil {
					return rbio.Errorf("%v", err)
				}
				resp := rbio.Ok()
				if resp.Payload, err = pg.Encode(); err != nil {
					return rbio.Errorf("%v", err)
				}
				return resp
			})
			sel := rbio.NewSelector(rbio.NewClient(net.Dial("ps")))
			sec, err := compute.NewSecondary(compute.SecondaryConfig{
				Name:    "sec-test",
				XLOG:    rbio.NewClient(net.Dial("xlog")),
				Resolve: func(page.ID) (*rbio.Selector, error) { return sel, nil },
			})
			if err != nil {
				t.Fatal(err)
			}
			return sec.Stop
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			held := make(chan int32)
			release := make(chan struct{})
			var pulls atomic.Int32
			recovery.SetRetryWait(t, func(ctx context.Context) {
				select {
				case held <- pulls.Load():
				case <-ctx.Done():
					return
				}
				select {
				case <-release:
				case <-ctx.Done():
				}
			})
			net := rbio.NewInstantNetwork()
			net.Serve("xlog", func(context.Context, *rbio.Request) *rbio.Response {
				pulls.Add(1)
				return rbio.Errorf("xlog: down")
			})
			t.Cleanup(c.start(t, net))

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
		})
	}
}
