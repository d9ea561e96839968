package compute

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"socrates/internal/btree"
	"socrates/internal/logwriter"
	"socrates/internal/obs"
	"socrates/internal/page"
	"socrates/internal/rbio"
	"socrates/internal/rbpex"
	"socrates/internal/recovery"
	"socrates/internal/simdisk"
	"socrates/internal/wal"
	"socrates/internal/xlog"
)

func newLZ(t *testing.T) *xlog.LandingZone {
	t.Helper()
	lz, err := xlog.NewLandingZone(simdisk.New(simdisk.Instant), 4<<20)
	if err != nil {
		t.Fatal(err)
	}
	return lz
}

// newLZWriter is the primary's log writer over lz, with no XLOG feed.
func newLZWriter(lz *xlog.LandingZone, opts ...logwriter.Option) *logwriter.LogWriter {
	return logwriter.New(&lzSink{lz: lz}, 1, opts...)
}

func TestLogWriterFlushesAtTxnBoundaries(t *testing.T) {
	lz := newLZ(t)
	w := newLZWriter(lz)
	defer w.Close()

	// Page records without a commit are never flushed alone: a waiter on
	// one of them has no group to lead.
	w.Append(&wal.Record{Kind: wal.KindCellPut, Page: 1, Key: []byte("k")})
	first := w.Append(&wal.Record{Kind: wal.KindCellPut, Page: 2, Key: []byte("k")})
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	if err := w.WaitHarden(ctx, first); err == nil || lz.HardenedEnd() != 1 {
		t.Fatalf("commit-less group: WaitHarden=%v hardened=%d", err, lz.HardenedEnd())
	}
	// The commit record completes the group.
	lsn := w.Append(wal.NewCommit(1, 1))
	if err := w.WaitHarden(context.Background(), lsn); err != nil {
		t.Fatal(err)
	}
	if lz.HardenedEnd() != lsn+1 {
		t.Fatalf("hardened = %d, want %d", lz.HardenedEnd(), lsn+1)
	}
	// The hardened block contains the whole transaction.
	b, _, found, err := lz.Read(1)
	if err != nil || !found {
		t.Fatalf("block read: %v %v", found, err)
	}
	if len(b.Records) != 3 {
		t.Fatalf("block has %d records", len(b.Records))
	}
}

func TestLogWriterGroupCommit(t *testing.T) {
	lz := newLZ(t)
	w := newLZWriter(lz)
	defer w.Close()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			lsn := w.Append(wal.NewCommit(uint64(n), uint64(n)))
			if err := w.WaitHarden(context.Background(), lsn); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	blocks, _ := w.Stats()
	if blocks == 0 || blocks > 16 {
		t.Fatalf("blocks = %d", blocks)
	}
}

func TestLogWriterFeedsXLOG(t *testing.T) {
	lz := newLZ(t)
	net := rbio.NewInstantNetwork()
	var mu sync.Mutex
	var fed, hardenReports int
	net.Serve("xlog", func(_ context.Context, req *rbio.Request) *rbio.Response {
		mu.Lock()
		defer mu.Unlock()
		switch req.Type {
		case rbio.MsgFeedBlock:
			fed++
		case rbio.MsgHardenReport:
			hardenReports++
		}
		return rbio.Ok()
	})
	w, _ := newLogWriter(lz, rbio.NewClient(net.Dial("xlog")), page.Partitioning{}, 1, 0, obs.Plane{})
	lsn := w.Append(wal.NewCommit(1, 1))
	if err := w.WaitHarden(context.Background(), lsn); err != nil {
		t.Fatal(err)
	}
	w.Close()
	// Feed sends are async: poll with a deadline instead of a fixed sleep.
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		f, h := fed, hardenReports
		mu.Unlock()
		if f > 0 && h > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("fed=%d reports=%d", f, h)
		}
		time.Sleep(time.Millisecond) // deadline-bounded poll for async feed sends
	}
}

func TestWaitHardenAfterClose(t *testing.T) {
	lz := newLZ(t)
	w := newLZWriter(lz)
	w.Close()
	if err := w.WaitHarden(context.Background(), 99); err == nil {
		t.Fatal("WaitHarden on closed writer should fail")
	}
}

// pageServerStub answers GetPage with a canned page and records the
// requested min LSN. With tear set, it flips one payload byte of the image
// it sends.
type pageServerStub struct {
	mu      sync.Mutex
	minLSNs []page.LSN
	lsn     page.LSN
	tear    bool
}

func (s *pageServerStub) handler() rbio.Handler {
	return func(_ context.Context, req *rbio.Request) *rbio.Response {
		if req.Type != rbio.MsgGetPage {
			return rbio.Errorf("unexpected %v", req.Type)
		}
		s.mu.Lock()
		s.minLSNs = append(s.minLSNs, req.LSN)
		s.mu.Unlock()
		pg := &page.Page{ID: req.Page, LSN: s.lsn, Type: page.TypeLeaf, Data: []byte{1}}
		buf, _ := pg.Encode()
		if s.tear {
			buf[page.HeaderSize] ^= 0xFF
		}
		resp := rbio.Ok()
		resp.Payload = buf
		return resp
	}
}

func newRemoteFile(t *testing.T, stub *pageServerStub, floor page.LSN) *RemotePageFile {
	t.Helper()
	net := rbio.NewInstantNetwork()
	net.Serve("ps", stub.handler())
	sel := rbio.NewSelector(rbio.NewClient(net.Dial("ps")))
	f, err := NewRemotePageFile(rbpex.Config{MemPages: 2},
		func(page.ID) (*rbio.Selector, error) { return sel, nil },
		func() page.LSN { return floor }, obs.Plane{})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// applyAsSecondary does with rec what a secondary's apply thread does: the
// redo cursor under the node's recovery.Cached policy.
func applyAsSecondary(t *testing.T, f *RemotePageFile, rec *wal.Record) {
	t.Helper()
	policy := &recovery.Cached{Pending: f, Cache: f.Cache()}
	if err := recovery.NewReplayer(policy, 0, nil).ApplyRecord(rec, 0); err != nil {
		t.Fatalf("secondary apply of %v: %v", rec.Kind, err)
	}
}

func TestRemoteFileUsesEvictedLSN(t *testing.T) {
	stub := &pageServerStub{lsn: 50}
	f := newRemoteFile(t, stub, 5)

	// Cold read of an unknown page: min LSN = floor.
	if _, err := f.Read(7); err != nil {
		t.Fatal(err)
	}
	// Write a newer version and force it out of the cache: read and written,
	// the page is protected (DESIGN §20.2), and leaves only after another
	// page has been referenced twice.
	_ = f.Write(&page.Page{ID: 7, LSN: 60, Type: page.TypeLeaf, Data: []byte{2}})
	_ = f.Write(&page.Page{ID: 8, LSN: 61, Type: page.TypeLeaf})
	_ = f.Write(&page.Page{ID: 8, LSN: 62, Type: page.TypeLeaf}) // 8 protected, 7 back on probation
	_ = f.Write(&page.Page{ID: 9, LSN: 63, Type: page.TypeLeaf}) // evicts 7
	stub.lsn = 60
	if _, err := f.Read(7); err != nil {
		t.Fatal(err)
	}
	stub.mu.Lock()
	defer stub.mu.Unlock()
	if len(stub.minLSNs) != 2 {
		t.Fatalf("fetches = %d (%v)", len(stub.minLSNs), stub.minLSNs)
	}
	if stub.minLSNs[0] != 5 {
		t.Fatalf("cold fetch min LSN = %d, want floor 5", stub.minLSNs[0])
	}
	if stub.minLSNs[1] != 60 {
		t.Fatalf("post-evict fetch min LSN = %d, want 60 (evicted-LSN map)", stub.minLSNs[1])
	}
}

// A page image torn on the wire fails the read with the page codec's
// checksum error itself, not a message that only quotes it.
func TestTornGetPageIsErrChecksum(t *testing.T) {
	f := newRemoteFile(t, &pageServerStub{lsn: 5, tear: true}, 1)
	_, err := f.Read(7)
	if !errors.Is(err, page.ErrChecksum) {
		t.Fatalf("read of a torn image: %v, want page.ErrChecksum", err)
	}
}

func TestRemoteFilePendingQueueProtocol(t *testing.T) {
	stub := &pageServerStub{lsn: 10}
	f := newRemoteFile(t, stub, 1)

	// Nothing pending: records for uncached pages are not queued.
	rec := &wal.Record{LSN: 11, Kind: wal.KindCellPut, Page: 3,
		Key: []byte("k"), Value: []byte("v")}
	if f.QueueIfPending(rec) {
		t.Fatal("queued without a pending fetch")
	}

	// Register a fetch manually through the public path: start a Read and
	// interleave a record while it is in flight. The instant network makes
	// true interleaving racy to arrange, so exercise the queue directly:
	reg, _ := f.register(3)
	if !f.QueueIfPending(rec) {
		t.Fatal("pending fetch did not queue the record")
	}
	f.mu.Lock()
	queued := len(reg.queued)
	f.mu.Unlock()
	if queued != 1 {
		t.Fatalf("queued = %d", queued)
	}
}

// TestFetchInstallOwnership pins the two halves of the §4.5 hand-over. The
// fetch that registered a page drains the queue, installs the page, and
// unregisters only once the queue is empty — so records arriving while it
// installs are applied too. A fetch that overlaps it waits for the owner's
// page, takes it with the queued redo applied, and installs nothing.
func TestFetchInstallOwnership(t *testing.T) {
	f := newRemoteFile(t, &pageServerStub{lsn: 10}, 1)
	cellPut := func(lsn page.LSN, key string) *wal.Record {
		return &wal.Record{LSN: lsn, Kind: wal.KindCellPut, Page: 3, Key: []byte(key), Value: []byte("v")}
	}

	// An overlapping fetch: page 3 is registered by someone else.
	reg, owner := f.register(3)
	if !owner {
		t.Fatal("first registration of the page does not own it")
	}
	if !f.QueueIfPending(cellPut(11, "a")) {
		t.Fatal("record not queued behind the registered fetch")
	}
	var overlapping *page.Page
	var overlapErr error
	read := make(chan struct{})
	go func() {
		defer close(read)
		overlapping, overlapErr = f.Read(3)
	}()

	// The owner receives its image: the queued record is applied and the
	// page published to the overlapping read.
	fetched := &page.Page{ID: 3, LSN: 10, Type: page.TypeLeaf, Data: btree.EmptyNodePayload()}
	pg, err := f.receive(reg, fetched)
	if err != nil || pg.LSN != 11 {
		t.Fatalf("receive: %+v %v", pg, err)
	}
	within(t, "the overlapping read", func() { <-read })
	if overlapErr != nil || overlapping != pg {
		t.Fatalf("overlapping read: %+v %v, want the owner's page at LSN 11", overlapping, overlapErr)
	}
	f.mu.Lock()
	registered := f.pending[3] == reg
	f.mu.Unlock()
	if f.Cache().Contains(3) || !registered {
		t.Fatalf("overlapping fetch interfered: cached %v registered %v", f.Cache().Contains(3), registered)
	}

	// The owner installs: the record queued since is applied, the
	// registration is gone, and the next record finds the page cached.
	if !f.QueueIfPending(cellPut(12, "b")) {
		t.Fatal("record not queued behind the receiving owner")
	}
	if pg, err = f.install(reg, pg); err != nil || pg.LSN != 12 {
		t.Fatalf("install: %+v %v", pg, err)
	}
	if f.QueueIfPending(cellPut(13, "c")) {
		t.Fatal("registration outlived the install")
	}
	applyAsSecondary(t, f, cellPut(13, "c"))
	if lsn, _ := cachedLSN(f.Cache(), 3); lsn != 13 {
		t.Fatalf("cached LSN = %d, want 13", lsn)
	}
	if fetched.LSN != 10 || len(fetched.Data) != len(btree.EmptyNodePayload()) {
		t.Fatal("receive or install edited the fetched page")
	}
}

// TestApplyIfCachedPolicy is a secondary's §4.5 rule on the redo cursor:
// a record for an uncached page is ignored unless it is the page's image,
// which admits the page; records for a cached page apply.
func TestApplyIfCachedPolicy(t *testing.T) {
	stub := &pageServerStub{lsn: 10}
	f := newRemoteFile(t, stub, 1)

	// Uncached page + cell record → ignored (the §4.5 policy).
	applyAsSecondary(t, f, &wal.Record{LSN: 11, Kind: wal.KindCellPut, Page: 5, Key: []byte("k")})
	if f.Cache().Contains(5) {
		t.Fatal("a cell record admitted an uncached page")
	}
	// Page images for new pages are admitted.
	applyAsSecondary(t, f, &wal.Record{LSN: 12, Kind: wal.KindPageImage,
		Page: 5, PageType: page.TypeLeaf, Value: nil})
	if lsn, ok := cachedLSN(f.Cache(), 5); !ok || lsn != 12 {
		t.Fatalf("image admit: cached LSN = %d %v", lsn, ok)
	}
	// Now the page is cached: later records apply.
	applyAsSecondary(t, f, &wal.Record{LSN: 13, Kind: wal.KindPageImage,
		Page: 5, PageType: page.TypeLeaf, Value: nil})
	if lsn, ok := cachedLSN(f.Cache(), 5); !ok || lsn != 13 {
		t.Fatalf("cached LSN = %d %v", lsn, ok)
	}
}

// cachedLSN is the LSN of the page c serves for id, if it holds one. It
// reads through Get, so it counts a hit and promotes an SSD-tier page to
// memory; no caller checks the hit counts or the tiers afterwards.
func cachedLSN(c *rbpex.Cache, id page.ID) (page.LSN, bool) {
	pg, ok := c.Get(id)
	if !ok {
		return 0, false
	}
	return pg.LSN, true
}
