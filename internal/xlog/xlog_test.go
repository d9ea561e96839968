package xlog

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"socrates/internal/obs"
	"socrates/internal/page"
	"socrates/internal/rbio"
	"socrates/internal/simdisk"
	"socrates/internal/wal"
	"socrates/internal/xstore"
)

// mkBlocks builds n contiguous blocks starting at LSN 1, each with one
// cell-put record on the given page (so partition annotations are real).
func mkBlocks(n int, pageOf func(i int) page.ID, pt page.Partitioning) []*wal.Block {
	bld := wal.NewBuilder(1, pt)
	var blocks []*wal.Block
	for i := 0; i < n; i++ {
		bld.Append(&wal.Record{
			Kind: wal.KindCellPut, Page: pageOf(i),
			Key: []byte(fmt.Sprintf("k%d", i)), Value: []byte("v"),
		})
		blocks = append(blocks, bld.Flush())
	}
	return blocks
}

func newLZ(t *testing.T, capacity int64) (*LandingZone, simdisk.Volume) {
	t.Helper()
	vol := simdisk.New(simdisk.Instant)
	lz, err := NewLandingZone(vol, capacity)
	if err != nil {
		t.Fatal(err)
	}
	return lz, vol
}

func TestLZWriteReadRoundTrip(t *testing.T) {
	lz, _ := newLZ(t, 1<<20)
	blocks := mkBlocks(5, func(i int) page.ID { return page.ID(i) }, page.Partitioning{})
	for _, b := range blocks {
		if err := lz.Write(b); err != nil {
			t.Fatal(err)
		}
	}
	if lz.HardenedEnd() != blocks[4].End {
		t.Fatalf("hardened = %d, want %d", lz.HardenedEnd(), blocks[4].End)
	}
	got, _, found, err := lz.Read(blocks[2].Start)
	if err != nil || !found {
		t.Fatalf("read: %v %v", found, err)
	}
	if got.Start != blocks[2].Start || len(got.Records) != 1 {
		t.Fatalf("got %+v", got)
	}
	if _, _, found, _ := lz.Read(9999); found {
		t.Fatal("phantom block")
	}
}

func TestLZReleaseFreesSpace(t *testing.T) {
	lz, _ := newLZ(t, 1<<20)
	blocks := mkBlocks(10, func(i int) page.ID { return 1 }, page.Partitioning{})
	for _, b := range blocks {
		_ = lz.Write(b)
	}
	if retained(lz) != 10 {
		t.Fatalf("retained = %d", retained(lz))
	}
	lz.ReleaseUpTo(blocks[4].End)
	if retained(lz) != 5 {
		t.Fatalf("retained after release = %d", retained(lz))
	}
	if _, _, found, _ := lz.Read(blocks[2].Start); found {
		t.Fatal("released block still readable")
	}
	if _, _, found, _ := lz.Read(blocks[7].Start); !found {
		t.Fatal("retained block vanished")
	}
}

func TestLZBackpressureTimesOut(t *testing.T) {
	lz, _ := newLZ(t, lzDataStart+4096)
	bld := wal.NewBuilder(1, page.Partitioning{})
	start := time.Now()
	var err error
	for i := 0; i < 100; i++ {
		bld.Append(&wal.Record{Kind: wal.KindCellPut, Page: 1,
			Key: []byte("k"), Value: make([]byte, 256)})
		if err = lz.Write(bld.Flush()); err != nil {
			break
		}
	}
	if !errors.Is(err, errLZTimeout) {
		t.Fatalf("err = %v, want ErrLZTimeout", err)
	}
	if time.Since(start) < 4*time.Second {
		t.Fatal("timed out too fast (no backpressure wait)")
	}
	if lz.Stalls() == 0 {
		t.Fatal("no stalls recorded")
	}
}

func TestLZWraparound(t *testing.T) {
	// Small ring; continuous release keeps space available across wraps.
	lz, _ := newLZ(t, lzDataStart+8192)
	bld := wal.NewBuilder(1, page.Partitioning{})
	var last *wal.Block
	for i := 0; i < 100; i++ {
		bld.Append(&wal.Record{Kind: wal.KindCellPut, Page: 1,
			Key: []byte(fmt.Sprintf("k%03d", i)), Value: make([]byte, 300)})
		b := bld.Flush()
		if err := lz.Write(b); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		last = b
		// Destage promptly: keep only the most recent couple of blocks.
		if b.End > 3 {
			lz.ReleaseUpTo(b.End - 2)
		}
	}
	got, _, found, err := lz.Read(last.Start)
	if err != nil || !found || got.End != last.End {
		t.Fatalf("after wraps: %v %v", found, err)
	}
	if lz.HardenedEnd() != last.End {
		t.Fatalf("hardened = %d", lz.HardenedEnd())
	}
}

func TestLZRecoveryFindsHardenedEnd(t *testing.T) {
	vol := simdisk.New(simdisk.Instant)
	lz, err := NewLandingZone(vol, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	blocks := mkBlocks(20, func(i int) page.ID { return page.ID(i % 3) },
		page.Partitioning{PagesPerPartition: 1})
	for _, b := range blocks {
		if err := lz.Write(b); err != nil {
			t.Fatal(err)
		}
	}
	want := lz.HardenedEnd()

	re, err := RecoverLandingZone(vol, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if re.HardenedEnd() != want {
		t.Fatalf("recovered hardened = %d, want %d", re.HardenedEnd(), want)
	}
	got, _, found, err := re.Read(blocks[10].Start)
	if err != nil || !found || got.End != blocks[10].End {
		t.Fatalf("recovered read: %v %v", found, err)
	}
	// Writes continue after recovery.
	bld := wal.NewBuilder(want, page.Partitioning{})
	bld.Append(&wal.Record{Kind: wal.KindNoop})
	if err := re.Write(bld.Flush()); err != nil {
		t.Fatal(err)
	}
}

func TestLZRecoveryRejectsForeignVolume(t *testing.T) {
	vol := simdisk.New(simdisk.Instant)
	_ = vol.WriteAt(make([]byte, 128), 0)
	if _, err := RecoverLandingZone(vol, 1<<20); err == nil {
		t.Fatal("foreign volume accepted")
	}
}

// --- service tests ---

type testRig struct {
	lz  *LandingZone
	svc *Service
	st  *xstore.Store
}

func newRig(t *testing.T, brokerBytes int) *testRig {
	t.Helper()
	lz, _ := newLZ(t, 4<<20)
	st := xstore.New(xstore.Config{Profile: simdisk.Instant})
	svc, err := New(Config{
		LZ: lz, LT: st, LTBlob: "lt/db1",
		CacheDevice: simdisk.New(simdisk.Instant),
		cacheBytes:  64 << 10,
		brokerBytes: brokerBytes,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	return &testRig{lz: lz, svc: svc, st: st}
}

// publish pushes blocks through the full primary-side path: LZ write, feed,
// harden report.
func (r *testRig) publish(t *testing.T, blocks []*wal.Block, feed bool) {
	t.Helper()
	for _, b := range blocks {
		if err := r.lz.Write(b); err != nil {
			t.Fatal(err)
		}
		if feed {
			r.svc.FeedEncodedFrom(context.Background(), epochOf(r.svc), b, nil)
		}
	}
	r.svc.ReportHardened(context.Background(), r.lz.HardenedEnd())
}

func decodeAll(t *testing.T, payload []byte) []*wal.Block {
	t.Helper()
	var out []*wal.Block
	for len(payload) > 0 {
		b, n, err := wal.DecodeBlock(payload)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, b)
		payload = payload[n:]
	}
	return out
}

func TestServeFromSequenceMap(t *testing.T) {
	r := newRig(t, 1<<20)
	blocks := mkBlocks(10, func(i int) page.ID { return page.ID(i) }, page.Partitioning{})
	r.publish(t, blocks, true)

	payload, next, err := r.svc.Pull(context.Background(), 1, -1, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := decodeAll(t, payload)
	if len(got) != 10 || next != blocks[9].End {
		t.Fatalf("pulled %d blocks, next=%d", len(got), next)
	}
	received, stale, gaps := r.svc.Stats()
	if received != 10 || stale != 0 || gaps != 0 {
		t.Fatalf("stats = %d %d %d", received, stale, gaps)
	}
}

func TestSpeculativeBlocksInvisibleUntilHardened(t *testing.T) {
	r := newRig(t, 1<<20)
	blocks := mkBlocks(3, func(i int) page.ID { return 1 }, page.Partitioning{})
	// Feed only: nothing hardened yet.
	for _, b := range blocks {
		r.svc.FeedEncodedFrom(context.Background(), epochOf(r.svc), b, nil)
	}
	payload, next, err := r.svc.Pull(context.Background(), 1, -1, 0)
	if err != nil || len(payload) != 0 || next != 1 {
		t.Fatalf("unhardened blocks visible: %d bytes, next=%d", len(payload), next)
	}
	// Now harden through the LZ.
	for _, b := range blocks {
		_ = r.lz.Write(b)
	}
	r.svc.ReportHardened(context.Background(), r.lz.HardenedEnd())
	payload, next, _ = r.svc.Pull(context.Background(), 1, -1, 0)
	if len(decodeAll(t, payload)) != 3 || next != blocks[2].End {
		t.Fatal("hardened blocks not served")
	}
}

func TestGapFillFromLZ(t *testing.T) {
	r := newRig(t, 1<<20)
	blocks := mkBlocks(6, func(i int) page.ID { return 1 }, page.Partitioning{})
	for i, b := range blocks {
		_ = r.lz.Write(b)
		if i%2 == 0 { // half the feed messages are lost
			r.svc.FeedEncodedFrom(context.Background(), epochOf(r.svc), b, nil)
		}
	}
	r.svc.ReportHardened(context.Background(), r.lz.HardenedEnd())
	payload, next, err := r.svc.Pull(context.Background(), 1, -1, 0)
	if err != nil || next != blocks[5].End {
		t.Fatalf("pull after loss: next=%d err=%v", next, err)
	}
	if len(decodeAll(t, payload)) != 6 {
		t.Fatal("missing blocks despite LZ gap fill")
	}
	_, _, gaps := r.svc.Stats()
	if gaps != 3 {
		t.Fatalf("gap fills = %d, want 3", gaps)
	}
}

// TestPromotedRungPublishedWithTheBlocks: the promoted rung is the service's
// promotion watermark, so what consumers can pull and what the ladder shows
// are one value — also when promotion leaves early.
// Exact step: two fed blocks, then a gap the landing zone cannot fill yet.
// Promotion stops at the gap; what it promoted is published.
func TestPromotedRungPublishedWithTheBlocks(t *testing.T) {
	lz, _ := newLZ(t, 4<<20)
	wms := obs.NewWatermarkSet()
	svc, err := New(Config{LZ: lz, LT: xstore.New(xstore.Config{Profile: simdisk.Instant}),
		LTBlob: "lt/db1", Obs: obs.Plane{Watermarks: wms}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	blocks := mkBlocks(4, func(int) page.ID { return 1 }, page.Partitioning{})
	svc.FeedEncodedFrom(context.Background(), epochOf(svc), blocks[0], nil)
	svc.FeedEncodedFrom(context.Background(), epochOf(svc), blocks[1], nil)
	// The harden report runs ahead of what XLOG can see: block 2 was neither
	// fed nor, as far as a read of the landing zone can tell, written.
	svc.promoteTo(blocks[3].End)

	if got := svc.HardenedEnd(); got != blocks[1].End {
		t.Fatalf("promoted to %d, want the end of the second block, %d", got, blocks[1].End)
	}
	payload, next, err := svc.Pull(context.Background(), 1, -1, 0)
	if err != nil || len(decodeAll(t, payload)) != 2 || next != blocks[1].End {
		t.Fatalf("pull: %d bytes, next %d, err %v; want both promoted blocks", len(payload), next, err)
	}
	if rung := page.LSN(wms.Watermark(obs.WMPromoted, "").Value()); rung != svc.HardenedEnd() {
		t.Fatalf("xlog.promoted_lsn is published as %d while consumers can pull up to %d", rung, svc.HardenedEnd())
	}
}

// TestPromoteFillsPastABlockReleasedDuringItsRead: a harden report that
// drops the lock to fill a gap from the landing zone can find the block gone
// when it gets there — a concurrent report promoted it, and the destager
// archived it and released it from the LZ. That empty read is no gap: the
// report must carry on from the new watermark to its own target. Stopping
// there left XLOG short of the durable end, so a point-in-time restore "to
// end of log" replayed a prefix and lost acknowledged commits.
//
// Exact step: the test holds the landing zone's lock, so the report's LZ read
// waits while the test promotes the block from the feed and releases it.
func TestPromoteFillsPastABlockReleasedDuringItsRead(t *testing.T) {
	r := newRig(t, 1<<20)
	blocks := mkBlocks(3, func(int) page.ID { return 1 }, page.Partitioning{})
	for _, b := range blocks {
		if err := r.lz.Write(b); err != nil {
			t.Fatal(err)
		}
	}
	r.svc.FeedEncodedFrom(context.Background(), epochOf(r.svc), blocks[0], nil) // blocks 1 and 2: feed lost

	r.lz.mu.Lock()
	reported := make(chan struct{})
	go func() {
		defer close(reported)
		r.svc.ReportHardened(context.Background(), blocks[2].End)
	}()
	// The report promotes block 0 from the feed, then drops its lock to read
	// block 1 from the LZ; HardenedEnd can take the lock only after that.
	for r.svc.HardenedEnd() != blocks[0].End {
		runtime.Gosched()
	}
	// Meanwhile block 1 arrives late on the feed and a second report
	// promotes it; the destager archives blocks 0-1 and releases them from
	// the LZ (what ReleaseUpTo does, under the lock the test holds).
	r.svc.FeedEncodedFrom(context.Background(), epochOf(r.svc), blocks[1], nil)
	r.svc.promoteTo(blocks[1].End)
	for _, b := range blocks[:2] {
		delete(r.lz.index, b.Start)
	}
	r.lz.order = r.lz.order[2:]
	r.lz.mu.Unlock()
	<-reported

	if got := r.svc.HardenedEnd(); got != blocks[2].End {
		t.Fatalf("harden report to %d left XLOG promoted to %d", blocks[2].End, got)
	}
}

func TestOutOfOrderFeed(t *testing.T) {
	r := newRig(t, 1<<20)
	blocks := mkBlocks(5, func(i int) page.ID { return 1 }, page.Partitioning{})
	for _, b := range blocks {
		_ = r.lz.Write(b)
	}
	// Feed arrives reversed.
	for i := len(blocks) - 1; i >= 0; i-- {
		r.svc.FeedEncodedFrom(context.Background(), epochOf(r.svc), blocks[i], nil)
	}
	r.svc.ReportHardened(context.Background(), r.lz.HardenedEnd())
	payload, _, _ := r.svc.Pull(context.Background(), 1, -1, 0)
	got := decodeAll(t, payload)
	if len(got) != 5 {
		t.Fatalf("got %d blocks", len(got))
	}
	for i, b := range got {
		if b.Start != blocks[i].Start {
			t.Fatalf("block %d out of order", i)
		}
	}
}

func TestPartitionFilteredPull(t *testing.T) {
	r := newRig(t, 1<<20)
	pt := page.Partitioning{PagesPerPartition: 10}
	// Even blocks touch partition 0 (pages 0-9), odd touch partition 1.
	blocks := mkBlocks(10, func(i int) page.ID {
		if i%2 == 0 {
			return page.ID(i % 10)
		}
		return page.ID(10 + i%10)
	}, pt)
	r.publish(t, blocks, true)

	payload, next, err := r.svc.Pull(context.Background(), 1, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := decodeAll(t, payload)
	if len(got) != 5 {
		t.Fatalf("filtered pull returned %d blocks, want 5", len(got))
	}
	for _, b := range got {
		if !b.Touches(1) {
			t.Fatalf("block [%d,%d) does not touch partition 1", b.Start, b.End)
		}
	}
	// The cursor still advances past skipped blocks.
	if next != blocks[9].End {
		t.Fatalf("next = %d, want %d", next, blocks[9].End)
	}
}

func TestPullBudgetLimitsBatch(t *testing.T) {
	r := newRig(t, 1<<20)
	blocks := mkBlocks(20, func(i int) page.ID { return 1 }, page.Partitioning{})
	r.publish(t, blocks, true)
	oneBlock := blocks[0].EncodedSize()
	payload, next, _ := r.svc.Pull(context.Background(), 1, -1, oneBlock*3)
	got := decodeAll(t, payload)
	if len(got) < 3 || len(got) > 4 {
		t.Fatalf("budgeted pull returned %d blocks", len(got))
	}
	// Follow-up pull continues from next.
	payload2, _, _ := r.svc.Pull(context.Background(), next, -1, 0)
	if len(decodeAll(t, payload2))+len(got) != 20 {
		t.Fatal("continuation lost blocks")
	}
}

func TestDestagingReleasesLZAndServesFromLowerTiers(t *testing.T) {
	// Tiny broker budget forces eviction to SSD cache / LT.
	r := newRig(t, 256)
	blocks := mkBlocks(30, func(i int) page.ID { return 1 }, page.Partitioning{})
	r.publish(t, blocks, true)
	if err := waitDestaged(r.svc, blocks[29].End, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	// Give the destager a beat to trim and release.
	time.Sleep(20 * time.Millisecond)
	if retained(r.lz) != 0 {
		t.Fatalf("LZ retains %d blocks after destaging", retained(r.lz))
	}
	// All blocks still served (from SSD cache or LT).
	payload, next, err := r.svc.Pull(context.Background(), 1, -1, 1<<20)
	if err != nil || next != blocks[29].End {
		t.Fatalf("pull: next=%d err=%v", next, err)
	}
	if len(decodeAll(t, payload)) != 30 {
		t.Fatal("blocks lost after destaging")
	}
	// And the LT blob physically holds the archive.
	if size, _ := r.st.Size("lt/db1"); size == 0 {
		t.Fatal("LT archive empty")
	}
}

func TestXStoreOutageDefersDestaging(t *testing.T) {
	r := newRig(t, 1<<20)
	r.st.SetOutage(true)
	blocks := mkBlocks(5, func(i int) page.ID { return 1 }, page.Partitioning{})
	r.publish(t, blocks, true)
	time.Sleep(30 * time.Millisecond)
	if r.svc.destagedEnd() >= blocks[4].End {
		t.Fatal("destaging advanced during XStore outage")
	}
	if retained(r.lz) != 5 {
		t.Fatal("LZ released blocks that were never archived")
	}
	// Consumers are unaffected: the broker serves everything.
	payload, _, _ := r.svc.Pull(context.Background(), 1, -1, 0)
	if len(decodeAll(t, payload)) != 5 {
		t.Fatal("pull failed during outage")
	}
	r.st.SetOutage(false)
	if err := waitDestaged(r.svc, blocks[4].End, 2*time.Second); err != nil {
		t.Fatal("destaging did not resume after outage")
	}
}

func TestServiceRecovery(t *testing.T) {
	lz, _ := newLZ(t, 4<<20)
	st := xstore.New(xstore.Config{Profile: simdisk.Instant})
	cfg := Config{LZ: lz, LT: st, LTBlob: "lt/db1",
		CacheDevice: simdisk.New(simdisk.Instant), cacheBytes: 64 << 10}
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	blocks := mkBlocks(12, func(i int) page.ID { return 1 }, page.Partitioning{})
	for _, b := range blocks {
		_ = lz.Write(b)
		svc.FeedEncodedFrom(context.Background(), epochOf(svc), b, nil)
	}
	svc.ReportHardened(context.Background(), lz.HardenedEnd())
	if err := waitDestaged(svc, blocks[11].End, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	svc.Close()

	// Restart the XLOG process: state rebuilt from LZ + LT.
	cfg.CacheDevice = simdisk.New(simdisk.Instant) // cache is volatile
	re, err := Recover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.HardenedEnd() != blocks[11].End {
		t.Fatalf("recovered hardened end = %d", re.HardenedEnd())
	}
	payload, next, err := re.Pull(context.Background(), 1, -1, 1<<20)
	if err != nil || next != blocks[11].End {
		t.Fatalf("recovered pull: next=%d err=%v", next, err)
	}
	if len(decodeAll(t, payload)) != 12 {
		t.Fatal("recovered service lost blocks")
	}
}

func TestStaleFeedDropped(t *testing.T) {
	r := newRig(t, 1<<20)
	blocks := mkBlocks(3, func(i int) page.ID { return 1 }, page.Partitioning{})
	r.publish(t, blocks, true)
	r.svc.FeedEncodedFrom(context.Background(), epochOf(r.svc), blocks[0], nil) // duplicate of an already promoted block
	_, stale, _ := r.svc.Stats()
	if stale != 1 {
		t.Fatalf("stale = %d", stale)
	}
}

func TestHandlerOverRBIO(t *testing.T) {
	r := newRig(t, 1<<20)
	net := rbio.NewInstantNetwork()
	net.Serve("xlog", r.svc.Handler())
	client := rbio.NewClient(net.Dial("xlog"))

	blocks := mkBlocks(4, func(i int) page.ID { return 1 }, page.Partitioning{})
	for _, b := range blocks {
		_ = r.lz.Write(b)
		if err := client.Send(context.Background(), &rbio.Request{Type: rbio.MsgFeedBlock, Payload: b.Encode()}); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(10 * time.Millisecond) // sends are async
	resp, err := client.Call(context.Background(), &rbio.Request{Type: rbio.MsgHardenReport, LSN: r.lz.HardenedEnd()})
	if err != nil || resp.Status != rbio.StatusOK {
		t.Fatalf("harden report: %+v %v", resp, err)
	}
	resp, err = client.Call(context.Background(), &rbio.Request{
		Type: rbio.MsgPullBlocks, LSN: 1, Partition: -1})
	if err != nil {
		t.Fatal(err)
	}
	if len(decodeAll(t, resp.Payload)) != 4 || resp.LSN != blocks[3].End {
		t.Fatalf("pull via rbio: %d bytes, next=%d", len(resp.Payload), resp.LSN)
	}
	resp, err = client.Call(context.Background(), &rbio.Request{Type: rbio.MsgReadState})
	if err != nil || resp.LSN != blocks[3].End {
		t.Fatalf("read state: %+v %v", resp, err)
	}
}

func TestBlockCacheEviction(t *testing.T) {
	c := newBlockCache(simdisk.New(simdisk.Instant), 1000)
	for i := 0; i < 10; i++ {
		c.put(page.LSN(i*10+1), make([]byte, 300))
	}
	c.mu.Lock()
	entries, bytes := len(c.index), c.used
	c.mu.Unlock()
	if bytes > 1000 {
		t.Fatalf("cache over budget: %d bytes", bytes)
	}
	if entries == 0 {
		t.Fatal("cache empty after puts")
	}
	// Oldest entries evicted, newest present.
	if _, ok := c.get(1); ok {
		t.Fatal("oldest entry survived eviction")
	}
	if _, ok := c.get(91); !ok {
		t.Fatal("newest entry missing")
	}
	// Oversized entries are skipped without damage.
	c.put(9999, make([]byte, 2000))
	if _, ok := c.get(9999); ok {
		t.Fatal("oversized entry cached")
	}
}

// scanCache is the bookkeeping of blockCache.put as it was before the
// front-pop: after each write it scans the whole index for overwritten
// extents. It is the reference the ring argument is checked against.
type scanCache struct {
	budget, head, used int64
	index              map[page.LSN]cacheExtent
	order              []page.LSN
}

func (c *scanCache) put(start page.LSN, n int64, writeFails bool) {
	if n > c.budget {
		return
	}
	for c.used+n > c.budget && len(c.order) > 0 {
		victim := c.order[0]
		c.order = c.order[1:]
		c.used -= c.index[victim].length
		delete(c.index, victim)
	}
	if c.head+n > c.budget*2 {
		c.head = 0
	}
	off := c.head
	c.head += n
	if writeFails {
		return
	}
	for lsn, ext := range c.index {
		if ext.off < off+n && off < ext.off+ext.length {
			delete(c.index, lsn)
			c.used -= ext.length
			for i, o := range c.order {
				if o == lsn {
					c.order = append(c.order[:i], c.order[i+1:]...)
					break
				}
			}
		}
	}
	c.index[start] = cacheExtent{off: off, length: n}
	c.order = append(c.order, start)
	c.used += n
}

// TestBlockCachePutMatchesFullScan drives the ring through many wraps with
// random block sizes, failed device writes (holes) and oversized blocks, and
// checks after every put that popping overwritten extents off the front of
// the insertion order leaves exactly the residency the full scan leaves —
// and that every resident block still reads back its own bytes.
func TestBlockCachePutMatchesFullScan(t *testing.T) {
	const budget = 4096
	dev := simdisk.New(simdisk.Instant)
	c := newBlockCache(dev, budget)
	ref := &scanCache{budget: budget, index: map[page.LSN]cacheExtent{}}
	r := rand.New(rand.NewSource(16))
	for i := 1; i <= 6000; i++ {
		n := 1 + r.Intn(1800)
		if r.Intn(40) == 0 {
			n = budget + r.Intn(100) // larger than the cache: skipped
		}
		fails := r.Intn(25) == 0 && n <= budget
		if fails {
			dev.FailNext(errors.New("injected write failure"))
		}
		start := page.LSN(i)
		c.put(start, bytes.Repeat([]byte{byte(i)}, n))
		ref.put(start, int64(n), fails)

		if c.used != ref.used || c.head != ref.head || len(c.index) != len(ref.index) ||
			len(c.order) != len(ref.order) {
			t.Fatalf("put %d: used %d/%d head %d/%d entries %d/%d", i,
				c.used, ref.used, c.head, ref.head, len(c.index), len(ref.index))
		}
		for j, lsn := range ref.order {
			if c.order[j] != lsn || c.index[lsn] != ref.index[lsn] {
				t.Fatalf("put %d: entry %d is %d %+v, full scan has %d %+v", i, j,
					c.order[j], c.index[c.order[j]], lsn, ref.index[lsn])
			}
			got, ok := c.get(lsn)
			if !ok || !bytes.Equal(got, bytes.Repeat([]byte{byte(lsn)}, len(got))) {
				t.Fatalf("put %d: resident block %d was overwritten", i, lsn)
			}
		}
	}
}

// decodedFrom reports whether the entry's encoding is the image its block
// was decoded from: the first record's key lies inside it.
func decodedFrom(e entry) bool {
	k := e.b.Records[0].Key
	for i := range e.enc {
		if &e.enc[i] == &k[0] {
			return true
		}
	}
	return false
}

// TestPullServesTheBytesItRead: a block the feed lost is promoted from the
// landing zone, and an archived block is served from the LT, each as the
// image XLOG read — the primary's encoding byte for byte, never a
// re-encoding of the decoded block.
func TestPullServesTheBytesItRead(t *testing.T) {
	lz, _ := newLZ(t, 4<<20)
	// No SSD cache and a broker that keeps nothing destaged, so an
	// archived block can only come from the LT; no destager, so the test
	// destages by hand.
	svc, err := build(Config{
		LZ: lz, LT: xstore.New(xstore.Config{Profile: simdisk.Instant}), LTBlob: "lt/db1",
		brokerBytes: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	svc.promoted.Publish(uint64(lz.HardenedEnd()))
	svc.destaged.Publish(svc.promoted.Value())

	blocks := mkBlocks(4, func(i int) page.ID { return page.ID(i) }, page.Partitioning{})
	var want []byte
	for _, b := range blocks {
		if err := lz.Write(b); err != nil {
			t.Fatal(err)
		}
		want = append(want, b.Encode()...)
	}
	ctx := context.Background()
	svc.ReportHardened(ctx, lz.HardenedEnd()) // every feed message lost
	if _, _, gaps := svc.Stats(); gaps != len(blocks) {
		t.Fatalf("gap fills = %d, want %d", gaps, len(blocks))
	}
	for _, e := range svc.broker {
		if !decodedFrom(e) {
			t.Fatalf("block %d promoted from the LZ with a re-encoded image", e.b.Start)
		}
	}
	got, next, err := svc.Pull(ctx, blocks[0].Start, -1, 0)
	if err != nil || next != blocks[3].End || !bytes.Equal(got, want) {
		t.Fatalf("pull answered from the LZ: next=%d err=%v, bytes equal %v", next, err, bytes.Equal(got, want))
	}
	if cap(got) != len(got) {
		t.Fatalf("pull answer of %d bytes has capacity %d, want one exact-size buffer", len(got), cap(got))
	}

	svc.destageOnce()
	if retained(lz) != 0 || len(svc.broker) != 0 {
		t.Fatalf("after destaging: LZ retains %d blocks, broker %d", retained(lz), len(svc.broker))
	}
	for _, b := range blocks {
		e, err := svc.lookup(b.Start)
		if err != nil || e.b == nil || !decodedFrom(e) {
			t.Fatalf("block %d from the LT: err=%v, served its image %v", b.Start, err, e.b != nil && decodedFrom(e))
		}
	}
	got, next, err = svc.Pull(ctx, blocks[0].Start, -1, 0)
	if err != nil || next != blocks[3].End || !bytes.Equal(got, want) {
		t.Fatalf("pull answered from the LT: next=%d err=%v, bytes equal %v", next, err, bytes.Equal(got, want))
	}
}

// epochOf is the producer epoch svc accepts feeds from.
func epochOf(svc *Service) uint64 {
	svc.mu.Lock()
	defer svc.mu.Unlock()
	return svc.producerEpoch
}

// retained is the number of blocks lz's ring holds.
func retained(lz *LandingZone) int {
	lz.mu.Lock()
	defer lz.mu.Unlock()
	return len(lz.order)
}

// waitDestaged waits on svc's destaged rung until it reaches lsn, as every
// wait on a rung does: obs.ErrDeadline once the timeout passes.
func waitDestaged(svc *Service, lsn page.LSN, timeout time.Duration) error {
	return svc.waits.AwaitLSN(nil, obs.WaitXLOGFeed, svc.destaged, uint64(lsn), time.Now().Add(timeout))
}
