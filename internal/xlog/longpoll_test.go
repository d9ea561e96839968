package xlog

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"socrates/internal/page"
	"socrates/internal/rbio"
	"socrates/internal/socerr"
)

// liveness bounds how long a test waits for something that must happen.
// It is a hang guard: no assertion reads how long anything took.
const liveness = 5 * time.Second

type pullResult struct {
	resp *rbio.Response
	err  error
}

// pullAsync issues one MsgPullBlocks over RBIO on its own goroutine.
func pullAsync(ctx context.Context, client *rbio.Client, from page.LSN, partition int32) <-chan pullResult {
	out := make(chan pullResult, 1)
	go func() {
		resp, err := client.Call(ctx, &rbio.Request{Type: rbio.MsgPullBlocks, LSN: from, Partition: partition})
		out <- pullResult{resp, err}
	}()
	return out
}

func (r *testRig) client() *rbio.Client {
	net := rbio.NewInstantNetwork()
	net.Serve("xlog", r.svc.Handler())
	return rbio.NewClient(net.Dial("xlog"))
}

func answered(t *testing.T, out <-chan pullResult) pullResult {
	t.Helper()
	guard := time.NewTimer(liveness)
	defer guard.Stop()
	select {
	case res := <-out:
		return res
	case <-guard.C:
		t.Fatalf("pull still outstanding after %v", liveness)
		return pullResult{}
	}
}

// waitParked returns once some goroutine is parked in the long poll's
// condition wait, read off the goroutine stacks — the pull is then
// outstanding at XLOG, not on its way there.
func waitParked(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(liveness)
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		for _, g := range bytes.Split(buf[:n], []byte("\n\n")) {
			if bytes.Contains(g, []byte("sync.(*Cond).Wait")) && bytes.Contains(g, []byte("(*Service).awaitLog")) {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("no pull parked in the long poll after %v", liveness)
		}
		runtime.Gosched()
	}
}

// TestLongPollAnswersWithTheBlockAPromoteBrings: a pull outstanding on an
// idle XLOG is answered with the block a later harden report promotes.
func TestLongPollAnswersWithTheBlockAPromoteBrings(t *testing.T) {
	r := newRig(t, 1<<20)
	out := pullAsync(context.Background(), r.client(), 1, -1)
	waitParked(t)
	blocks := mkBlocks(1, func(int) page.ID { return 1 }, page.Partitioning{})
	r.publish(t, blocks, true)
	res := answered(t, out)
	if res.err != nil || res.resp.Status != rbio.StatusOK {
		t.Fatalf("pull: %+v, %v", res.resp, res.err)
	}
	if got := decodeAll(t, res.resp.Payload); len(got) != 1 || res.resp.LSN != blocks[0].End {
		t.Fatalf("pull answered %d blocks, next %d; want the promoted block, next %d", len(got), res.resp.LSN, blocks[0].End)
	}
}

// TestLongPollEndsOnCloseAndOnCancel: an outstanding pull comes back when
// the service closes, and when its consumer gives up.
func TestLongPollEndsOnCloseAndOnCancel(t *testing.T) {
	t.Run("close", func(t *testing.T) {
		r := newRig(t, 1<<20)
		out := pullAsync(context.Background(), r.client(), 1, -1)
		waitParked(t)
		r.svc.Close()
		if res := answered(t, out); res.err == nil && res.resp.Status == rbio.StatusOK {
			t.Fatalf("a pull on a closed service answered OK: %+v", res.resp)
		}
	})
	t.Run("cancel", func(t *testing.T) {
		r := newRig(t, 1<<20)
		ctx, cancel := context.WithCancel(context.Background())
		out := pullAsync(ctx, r.client(), 1, -1)
		waitParked(t)
		cancel()
		if res := answered(t, out); res.err == nil && res.resp.Status == rbio.StatusOK {
			t.Fatalf("a cancelled pull answered OK: %+v", res.resp)
		}
	})
}

// TestLongPollFilteredPullMovesPastOtherPartitions: a page server filtered
// to partition 1 is woken by a block that touches only partition 0 and
// answered with no blocks but a next LSN past it, so it pulls from there.
func TestLongPollFilteredPullMovesPastOtherPartitions(t *testing.T) {
	r := newRig(t, 1<<20)
	pt := page.Partitioning{PagesPerPartition: 10}
	out := pullAsync(context.Background(), r.client(), 1, 1)
	waitParked(t)
	blocks := mkBlocks(1, func(int) page.ID { return 3 }, pt) // partition 0 only
	r.publish(t, blocks, true)
	res := answered(t, out)
	if res.err != nil || res.resp.Status != rbio.StatusOK {
		t.Fatalf("pull: %+v, %v", res.resp, res.err)
	}
	if len(res.resp.Payload) != 0 || res.resp.LSN != blocks[0].End {
		t.Fatalf("filtered pull: %d bytes, next %d; want none, next %d", len(res.resp.Payload), res.resp.LSN, blocks[0].End)
	}
}

// TestWaitDestagedMeetsItsDeadline is the lost wake-up the old deadline
// waker allowed: it broadcast without the lock, so one landing between the
// deadline check and Wait left the caller asleep until the next destage —
// which an LT outage never brings. With LT down, every wait, 0–50 µs long,
// must come back with ErrTimeout.
func TestWaitDestagedMeetsItsDeadline(t *testing.T) {
	r := newRig(t, 1<<20)
	r.st.SetOutage(true)
	blocks := mkBlocks(1, func(int) page.ID { return 1 }, page.Partitioning{})
	r.publish(t, blocks, true)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		timeout := time.Duration(rng.Int63n(int64(50*time.Microsecond) + 1))
		out := make(chan error, 1)
		go func() { out <- r.svc.WaitDestaged(blocks[0].End, timeout) }()
		guard := time.NewTimer(liveness)
		select {
		case err := <-out:
			if !errors.Is(err, socerr.ErrTimeout) {
				t.Fatalf("wait %d: WaitDestaged = %v, want ErrTimeout", i, err)
			}
		case <-guard.C:
			t.Fatalf("wait %d: WaitDestaged(%v) still waiting after %v", i, timeout, liveness)
		}
		guard.Stop()
	}
}
