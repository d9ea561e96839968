package compute

import (
	"context"
	"encoding/binary"
	"errors"
	"testing"

	"socrates/internal/page"
	"socrates/internal/simdisk"
	"socrates/internal/wal"
	"socrates/internal/xlog"
)

// ---- leader-written group commit on the landing zone, in exact steps ----
//
// No flusher runs: the committers write the log (WaitHarden). The writer's
// own exact-step tests hold a fake sink (internal/logwriter); these hold the
// landing zone's device writes.

// gatedVolume holds every landing-zone entry write until the test releases
// it. The ring header (offset 0) passes straight through.
type gatedVolume struct {
	*simdisk.Device
	entered chan page.LSN // the held entry's block start
	release chan struct{} // one token lets one held write through; close lets all
}

func newGatedLZ(t *testing.T) (*xlog.LandingZone, *gatedVolume) {
	t.Helper()
	v := &gatedVolume{Device: simdisk.New(simdisk.Instant),
		entered: make(chan page.LSN, 64), release: make(chan struct{})}
	lz, err := xlog.NewLandingZone(v, 4<<20)
	if err != nil {
		t.Fatal(err)
	}
	return lz, v
}

func (v *gatedVolume) WriteAt(p []byte, off int64) error {
	if off == 0 {
		return v.Device.WriteAt(p, off)
	}
	n := binary.LittleEndian.Uint32(p[4:8])
	b, _, err := wal.DecodeBlock(p[8 : 8+n])
	if err != nil {
		return err
	}
	v.entered <- b.Start
	<-v.release
	return v.Device.WriteAt(p, off)
}

func TestAppendAloneWritesNothingAndTheFirstWaiterWrites(t *testing.T) {
	lz := newLZ(t)
	w := newLZWriter(lz)
	defer w.Close()

	w.Append(&wal.Record{Kind: wal.KindCellPut, Page: 1, Key: []byte("a")})
	lsn := w.Append(wal.NewCommit(1, 1))
	lsn2 := w.Append(wal.NewCommit(2, 2))
	if blocks, _ := w.Stats(); blocks != 0 || lz.HardenedEnd() != 1 {
		t.Fatalf("Append wrote: blocks=%d hardened=%d", blocks, lz.HardenedEnd())
	}
	// A caller whose ctx is done before it leads returns without writing.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := w.WaitHarden(ctx, lsn); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled WaitHarden = %v, want context.Canceled", err)
	}
	if blocks, _ := w.Stats(); blocks != 0 {
		t.Fatalf("a cancelled caller led %d blocks", blocks)
	}
	// The first waiter writes its group: every flushable record, in one
	// block, the other commit included.
	if err := w.WaitHarden(context.Background(), lsn); err != nil {
		t.Fatal(err)
	}
	if blocks, _ := w.Stats(); blocks != 1 || w.HardenedEnd() != lsn2+1 {
		t.Fatalf("first waiter: blocks=%d hardened=%d, want 1 and %d", blocks, w.HardenedEnd(), lsn2+1)
	}
	b, _, found, err := lz.Read(1)
	if err != nil || !found || len(b.Records) != 3 {
		t.Fatalf("group block: found=%v err=%v block=%+v", found, err, b)
	}
}

func TestCloseWritesAGroupNobodyWaitsFor(t *testing.T) {
	lz := newLZ(t)
	w := newLZWriter(lz)
	w.Append(&wal.Record{Kind: wal.KindCellPut, Page: 1, Key: []byte("a")})
	lsn := w.Append(wal.NewCommit(1, 1))
	w.Append(&wal.Record{Kind: wal.KindCellPut, Page: 1, Key: []byte("b")}) // no boundary: stays
	w.Close()
	if blocks, _ := w.Stats(); blocks != 1 || lz.HardenedEnd() != lsn+1 {
		t.Fatalf("Close: blocks=%d LZ hardened=%d, want 1 and %d", blocks, lz.HardenedEnd(), lsn+1)
	}
}

// A follower's cancelled ctx returns at once while the leader is mid-write;
// the leader, whose ctx is cancelled with it, returns when its device write
// does — and with the outcome of that write.
func TestFollowerCancelsWhileLeaderWrites(t *testing.T) {
	lz, vol := newGatedLZ(t)
	w := newLZWriter(lz)
	defer w.Close()

	lsn := w.Append(wal.NewCommit(1, 1))
	lsn2 := w.Append(wal.NewCommit(2, 2))
	ctx, cancel := context.WithCancel(context.Background())
	led := make(chan error, 1)
	go func() { led <- w.WaitHarden(ctx, lsn) }()
	<-vol.entered // the leader cut both commits and its write is held

	followed := make(chan error, 1)
	go func() { followed <- w.WaitHarden(ctx, lsn2) }()
	cancel()
	if err := <-followed; !errors.Is(err, context.Canceled) {
		t.Fatalf("follower = %v, want context.Canceled", err)
	}
	select {
	case err := <-led:
		t.Fatalf("leader returned (%v) before its device write", err)
	default:
	}
	close(vol.release)
	if err := <-led; err != nil {
		t.Fatal(err)
	}
	if got := w.HardenedEnd(); got != lsn2+1 {
		t.Fatalf("hardened %d after the leader's write, want %d", got, lsn2+1)
	}
}
