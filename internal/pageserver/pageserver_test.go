package pageserver

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"socrates/internal/btree"
	"socrates/internal/obs"
	"socrates/internal/page"
	"socrates/internal/rbio"
	"socrates/internal/simdisk"
	"socrates/internal/socerr"
	"socrates/internal/wal"
	"socrates/internal/xlog"
	"socrates/internal/xstore"
)

// rig wires one page server to a real XLOG service.
type rig struct {
	lz    *xlog.LandingZone
	svc   *xlog.Service
	store *xstore.Store
	reg   *obs.Registry // the store's metrics
	net   *rbio.Network
	bld   *wal.Builder
	pt    page.Partitioning
}

func newRig(t *testing.T, pt page.Partitioning) *rig {
	t.Helper()
	vol := simdisk.New(simdisk.Instant)
	lz, err := xlog.NewLandingZone(vol, 8<<20)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	store := xstore.New(xstore.Config{Profile: simdisk.Instant, Obs: obs.Plane{Metrics: reg}})
	svc, err := xlog.New(xlog.Config{
		LZ: lz, LT: store, LTBlob: "lt",
		CacheDevice: simdisk.New(simdisk.Instant),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	net := rbio.NewInstantNetwork()
	net.Serve("xlog", svc.Handler())
	return &rig{lz: lz, svc: svc, store: store, reg: reg, net: net,
		bld: wal.NewBuilder(1, pt), pt: pt}
}

func (r *rig) server(t *testing.T, cfg Config) *Server {
	t.Helper()
	cfg.Partitioning = r.pt
	cfg.XLOG = rbio.NewClient(r.net.Dial("xlog"))
	cfg.Store = r.store
	if cfg.CacheSSD == nil {
		cfg.CacheSSD = simdisk.New(simdisk.Instant)
	}
	if cfg.CacheMeta == nil {
		cfg.CacheMeta = simdisk.New(simdisk.Instant)
	}
	if cfg.Name == "" {
		cfg.Name = "ps-test"
	}
	if cfg.CheckpointEvery == 0 {
		cfg.CheckpointEvery = 2 * time.Millisecond
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Stop)
	return srv
}

// emit publishes records through the LZ + XLOG pipeline (one block).
func (r *rig) emit(t *testing.T, recs ...*wal.Record) page.LSN {
	t.Helper()
	for _, rec := range recs {
		r.bld.Append(rec)
	}
	b := r.bld.Flush()
	if err := r.lz.Write(b); err != nil {
		t.Fatal(err)
	}
	r.svc.FeedEncodedFrom(context.Background(), 0, b, nil) // the first producer's epoch
	r.svc.ReportHardened(context.Background(), r.lz.HardenedEnd())
	return b.End
}

// imageRec builds a page-image record with a recognizable payload.
func imageRec(id page.ID, marker byte) *wal.Record {
	return &wal.Record{Kind: wal.KindPageImage, Page: id,
		PageType: page.TypeLeaf, Value: []byte{marker, marker, marker}}
}

func TestApplyAndGetPage(t *testing.T) {
	r := newRig(t, page.Partitioning{})
	srv := r.server(t, Config{})
	end := r.emit(t, imageRec(5, 'a'), wal.NewCommit(1, 1))

	pg, err := srv.GetPage(context.Background(), 5, end-1)
	if err != nil {
		t.Fatal(err)
	}
	if pg.ID != 5 || pg.Data[0] != 'a' {
		t.Fatalf("page = %+v", pg)
	}
	served, _, applies := srv.Stats()
	if served != 1 || applies == 0 {
		t.Fatalf("stats: served=%d applies=%d", served, applies)
	}
}

// TestStopWakesGetPage: a GetPage parked on the applied rung behind log that
// never comes returns as soon as Stop drops the rung, with an error wrapping
// socerr.ErrClosed — not the apply-lag timeout five seconds later.
func TestStopWakesGetPage(t *testing.T) {
	r := newRig(t, page.Partitioning{})
	srv := r.server(t, Config{})
	end := r.emit(t, imageRec(5, 'a'), wal.NewCommit(1, 1))
	if _, err := srv.GetPage(context.Background(), 5, end-1); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := srv.GetPage(context.Background(), 5, end+100)
		done <- err
	}()
	for _, waits, _ := srv.Stats(); waits == 0; _, waits, _ = srv.Stats() {
		time.Sleep(50 * time.Microsecond) // poll for the reader to reach the wait
	}
	srv.Stop()
	select {
	case err := <-done:
		if !errors.Is(err, socerr.ErrClosed) {
			t.Fatalf("GetPage across Stop: %v, want an error wrapping socerr.ErrClosed", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("GetPage never returned across Stop")
	}
}

func TestGetPageWaitsForApply(t *testing.T) {
	r := newRig(t, page.Partitioning{})
	srv := r.server(t, Config{})
	end := r.emit(t, imageRec(7, 'x'), wal.NewCommit(1, 1))

	// Ask for an LSN that does not exist yet; publish it shortly after.
	target := end + 1 // the commit record of the next block
	done := make(chan error, 1)
	go func() {
		pg, err := srv.GetPage(context.Background(), 7, target)
		if err == nil && pg.Data[0] != 'y' {
			err = fmt.Errorf("stale page served: %q", pg.Data)
		}
		done <- err
	}()
	time.Sleep(5 * time.Millisecond)
	r.emit(t, imageRec(7, 'y'), wal.NewCommit(2, 2))
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("GetPage did not return")
	}
}

func TestGetPageLSNNeverStale(t *testing.T) {
	r := newRig(t, page.Partitioning{})
	srv := r.server(t, Config{})
	r.emit(t, imageRec(3, 'a'), wal.NewCommit(1, 1))
	end2 := r.emit(t, imageRec(3, 'b'), wal.NewCommit(2, 2))

	pg, err := srv.GetPage(context.Background(), 3, end2-1)
	if err != nil {
		t.Fatal(err)
	}
	if pg.Data[0] != 'b' {
		t.Fatalf("stale page: %q", pg.Data)
	}
	if pg.LSN < end2-2 {
		t.Fatalf("page LSN %d below requested", pg.LSN)
	}
}

func TestOwnershipRejected(t *testing.T) {
	pt := page.Partitioning{PagesPerPartition: 10}
	r := newRig(t, pt)
	srv := r.server(t, Config{Partition: 0})
	if _, err := srv.GetPage(context.Background(), 25, 0); err == nil {
		t.Fatal("foreign page served")
	}
}

func TestFilteredApplyOnlyOwnPartition(t *testing.T) {
	pt := page.Partitioning{PagesPerPartition: 10}
	r := newRig(t, pt)
	srv0 := r.server(t, Config{Partition: 0, Name: "ps0"})
	srv1 := r.server(t, Config{Partition: 1, Name: "ps1"})

	end := r.emit(t, imageRec(5, 'a'), imageRec(15, 'b'), wal.NewCommit(1, 1))
	p0, err := srv0.GetPage(context.Background(), 5, end-1)
	if err != nil || p0.Data[0] != 'a' {
		t.Fatalf("srv0: %+v %v", p0, err)
	}
	p1, err := srv1.GetPage(context.Background(), 15, end-1)
	if err != nil || p1.Data[0] != 'b' {
		t.Fatalf("srv1: %+v %v", p1, err)
	}
	// Each applied only its own record.
	_, _, a0 := srv0.Stats()
	_, _, a1 := srv1.Stats()
	if a0 != 1 || a1 != 1 {
		t.Fatalf("applies: %d %d", a0, a1)
	}
}

func TestCheckpointPersistsToXStore(t *testing.T) {
	r := newRig(t, page.Partitioning{})
	srv := r.server(t, Config{BlobPrefix: "db/"})
	end := r.emit(t, imageRec(4, 'z'), wal.NewCommit(1, 1))
	if _, err := srv.GetPage(context.Background(), 4, end-1); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.FlushForBackup(); err != nil {
		t.Fatal(err)
	}
	if !r.store.Exists("db/page/4") {
		t.Fatal("checkpoint blob missing")
	}
	if dirtyPages(srv) != 0 {
		t.Fatalf("dirty = %d after flush", dirtyPages(srv))
	}
}

func TestXStoreOutageInsulation(t *testing.T) {
	r := newRig(t, page.Partitioning{})
	srv := r.server(t, Config{BlobPrefix: "db/"})
	r.store.SetOutage(true)
	end := r.emit(t, imageRec(9, 'q'), wal.NewCommit(1, 1))

	// Serving continues during the outage.
	pg, err := srv.GetPage(context.Background(), 9, end-1)
	if err != nil || pg.Data[0] != 'q' {
		t.Fatalf("serve during outage: %+v %v", pg, err)
	}
	// A drain asks for sweeps; each fails at XStore and the page stays
	// remembered. The error names the outage, not just the timeout.
	if err := srv.WaitCheckpointDrain(20 * time.Millisecond); !errors.Is(err, simdisk.ErrOutage) {
		t.Fatalf("drain during the outage: %v, want the outage", err)
	}
	if dirtyPages(srv) == 0 || !srv.XStoreDown() {
		t.Fatalf("after a failed drain: dirty %d, xstoreDown %v", dirtyPages(srv), srv.XStoreDown())
	}
	// Outage clears: checkpointing resumes and catches up.
	r.store.SetOutage(false)
	if err := srv.WaitCheckpointDrain(5 * time.Second); err != nil {
		t.Fatalf("checkpoint did not resume after outage: %v", err)
	}
	if dirtyPages(srv) != 0 || srv.XStoreDown() {
		t.Fatalf("after the drain: dirty %d, xstoreDown %v", dirtyPages(srv), srv.XStoreDown())
	}
	if !r.store.Exists("db/page/9") {
		t.Fatal("page never reached XStore")
	}
}

// storedLSN reads the LSN of a page's checkpoint image in XStore.
func storedLSN(t *testing.T, r *rig, srv *Server, id page.ID) page.LSN {
	t.Helper()
	buf, err := r.store.Get(srv.pageBlob(id))
	if err != nil {
		t.Fatal(err)
	}
	pg, err := page.Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	return pg.LSN
}

func (s *Server) checkpointLSN() page.LSN {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ckptLSN
}

// TestOutageMidSweepKeepsTheWholeBatchDirty: a sweep whose write XStore
// refuses persists nothing — no page image, no resume LSN — and forgets
// nothing; the sweep after the outage writes the versions current then.
func TestOutageMidSweepKeepsTheWholeBatchDirty(t *testing.T) {
	r := newRig(t, page.Partitioning{})
	srv := r.server(t, Config{BlobPrefix: "db/", CheckpointEvery: time.Hour}) // sweeps only when called
	end := r.emit(t, imageRec(1, 'a'), imageRec(2, 'a'), imageRec(3, 'a'), wal.NewCommit(1, 1))
	if !srv.WaitApplied(end, 5*time.Second) {
		t.Fatal("apply watermark never reached the emitted batch")
	}
	before := srv.checkpointLSN()

	r.store.SetOutage(true)
	if wrote, err := srv.sweep(); !errors.Is(err, simdisk.ErrOutage) || wrote != 0 {
		t.Fatalf("sweep into an outage: wrote %d, err %v", wrote, err)
	}
	r.store.SetOutage(false)
	if dirtyPages(srv) != 3 || srv.checkpointLSN() != before || !srv.XStoreDown() {
		t.Fatalf("after the failed sweep: dirty %d (want 3), ckptLSN %d (want %d), xstoreDown %v",
			dirtyPages(srv), srv.checkpointLSN(), before, srv.XStoreDown())
	}
	if blobs := r.store.List("db/"); len(blobs) != 0 {
		t.Fatalf("the failed sweep left %v in XStore", blobs)
	}

	// Two of the pages move on before the next sweep.
	end = r.emit(t, imageRec(1, 'b'), imageRec(2, 'b'), wal.NewCommit(2, 2))
	if !srv.WaitApplied(end, 5*time.Second) {
		t.Fatal("apply watermark never reached the second batch")
	}
	if wrote, err := srv.sweep(); err != nil || wrote != 3 {
		t.Fatalf("sweep after the outage: wrote %d, err %v", wrote, err)
	}
	for id := page.ID(1); id <= 3; id++ {
		pg, _ := srv.cache.Get(id)
		if got := storedLSN(t, r, srv, id); got != pg.LSN {
			t.Fatalf("page %d stored at lsn %d, newest is %d", id, got, pg.LSN)
		}
	}
	if dirtyPages(srv) != 0 || srv.checkpointLSN() != end || srv.XStoreDown() {
		t.Fatalf("after the good sweep: dirty %d, ckptLSN %d (want %d), xstoreDown %v",
			dirtyPages(srv), srv.checkpointLSN(), end, srv.XStoreDown())
	}
	if resume, err := srv.readMeta(); err != nil || resume != end {
		t.Fatalf("persisted resume LSN %d (%v), want %d", resume, err, end)
	}
}

// TestPageRedirtiedDuringSweepStaysDirty: a page the apply loop changes
// while the batch holding its previous version is on its way to XStore keeps
// its (newer) dirty mark when that batch lands, and the next sweep writes it.
func TestPageRedirtiedDuringSweepStaysDirty(t *testing.T) {
	r := newRig(t, page.Partitioning{})
	srv := r.server(t, Config{CheckpointEvery: time.Hour}) // sweeps only when called
	end := r.emit(t, imageRec(5, 'a'), imageRec(6, 'a'), wal.NewCommit(1, 1))
	if !srv.WaitApplied(end, 5*time.Second) {
		t.Fatal("apply watermark never reached the emitted batch")
	}
	v1, _ := srv.cache.Get(5)

	release := r.store.HoldWrites()
	footprint := r.reg.Gauge("xstore.footprint_bytes")
	before := footprint.Value()
	swept := make(chan error, 1)
	go func() {
		_, err := srv.sweep()
		swept <- err
	}()
	// The batch is encoded and has its place in the log (the log archive's
	// few bytes cannot add up to it); its write waits at the device.
	deadline := time.Now().Add(5 * time.Second)
	for footprint.Value() < before+2*page.Size {
		if time.Now().After(deadline) {
			t.Fatal("the sweep never reached the device")
		}
		time.Sleep(50 * time.Microsecond) // deadline-bounded poll for the sweep goroutine to reach the held device
	}
	end = r.emit(t, imageRec(5, 'b'), wal.NewCommit(2, 2))
	if !srv.WaitApplied(end, 5*time.Second) {
		t.Fatal("apply watermark never reached the second batch")
	}
	v2, _ := srv.cache.Get(5)
	release()
	if err := <-swept; err != nil {
		t.Fatal(err)
	}
	if got := storedLSN(t, r, srv, 5); got != v1.LSN || dirtyPages(srv) != 1 {
		t.Fatalf("after the sweep in flight: stored lsn %d (want %d), dirty %d (want 1: page 5 again)",
			got, v1.LSN, dirtyPages(srv))
	}
	if resume := srv.checkpointLSN(); resume.After(v2.LSN) {
		t.Fatalf("resume LSN %d moved past the version (lsn %d) XStore does not have", resume, v2.LSN)
	}
	if _, err := srv.sweep(); err != nil {
		t.Fatal(err)
	}
	if got := storedLSN(t, r, srv, 5); got != v2.LSN || dirtyPages(srv) != 0 {
		t.Fatalf("after the next sweep: stored lsn %d (want %d), dirty %d (want 0)", got, v2.LSN, dirtyPages(srv))
	}
}

// TestQuietServerDrainsOnItsOwn: nobody asks, no budget is reached, and a
// server whose feed has gone still checkpoints what it has.
func TestQuietServerDrainsOnItsOwn(t *testing.T) {
	r := newRig(t, page.Partitioning{})
	srv := r.server(t, Config{BlobPrefix: "db/", CheckpointEvery: time.Millisecond})
	end := r.emit(t, imageRec(4, 'z'), wal.NewCommit(1, 1))
	if !srv.WaitApplied(end, 5*time.Second) {
		t.Fatal("apply watermark never reached the emitted batch")
	}
	srv.mu.Lock()
	clean := srv.clean
	srv.mu.Unlock()
	select {
	case <-clean:
	case <-time.After(5 * time.Second):
		t.Fatal("a quiet server with a dirty page never swept")
	}
	if !r.store.Exists("db/page/4") || srv.checkpointLSN() != end {
		t.Fatalf("after the quiet sweep: blob %v, ckptLSN %d (want %d)", r.store.Exists("db/page/4"), srv.checkpointLSN(), end)
	}
}

// TestRestartReplaysAtMostTheRedoBudget drives the trigger rule by hand,
// one evaluation after every block as the loop's tick would make it: no
// sweep before the redo distance reaches the budget, one when it does, so
// the distance never exceeds the budget by more than the log between two
// evaluations. Then the server dies with XStore out of reach, and its
// replacement — same name, empty disks — resumes from the persisted LSN,
// replays no more than that, and serves the same pages.
func TestRestartReplaysAtMostTheRedoBudget(t *testing.T) {
	r := newRig(t, page.Partitioning{})
	srv := r.server(t, Config{BlobPrefix: "db/", CheckpointEvery: time.Hour})
	const perBlock, pages = 1024, 48
	blocks := 5 * redoBudgetLSN / (2 * perBlock) // two and a half budgets of log
	var end page.LSN
	sweeps := 0
	for b := 0; b < blocks; b++ {
		recs := make([]*wal.Record, perBlock)
		for i := range recs {
			recs[i] = imageRec(page.ID(1+(b*perBlock+i)%pages), byte(b))
		}
		end = r.emit(t, recs...)
		if !srv.WaitApplied(end, 10*time.Second) {
			t.Fatalf("block %d never applied", b)
		}
		if srv.sweepDue(false) {
			if _, err := srv.sweep(); err != nil {
				t.Fatal(err)
			}
			sweeps++
		}
		if redo := srv.AppliedLSN().Distance(srv.checkpointLSN()); redo >= redoBudgetLSN {
			t.Fatalf("after block %d: redo distance %d with a budget of %d", b, redo, redoBudgetLSN)
		}
	}
	if sweeps != 2 {
		t.Fatalf("%d sweeps over 2.5 budgets of log, want 2", sweeps)
	}

	r.store.SetOutage(true) // the final checkpoint of Stop goes nowhere: a crash
	srv.Stop()
	r.store.SetOutage(false)
	persisted, err := srv.readMeta()
	if err != nil {
		t.Fatal(err)
	}
	if replay := end.Distance(persisted); replay == 0 || replay >= redoBudgetLSN {
		t.Fatalf("a restart would replay %d records, want some and fewer than the budget of %d", replay, redoBudgetLSN)
	}

	srv2 := r.server(t, Config{BlobPrefix: "db/", Seed: true, CheckpointEvery: time.Hour})
	if srv2.checkpointLSN() != persisted {
		t.Fatalf("restart resumes from %d, persisted %d", srv2.checkpointLSN(), persisted)
	}
	for id := page.ID(1); id <= pages; id++ {
		want, _ := srv.cache.Get(id)
		got, err := srv2.GetPage(context.Background(), id, end.Prev())
		if err != nil {
			t.Fatal(err)
		}
		if got.LSN != want.LSN || !bytes.Equal(got.Data, want.Data) {
			t.Fatalf("page %d after restart: lsn %d data %q, want lsn %d data %q", id, got.LSN, got.Data, want.LSN, want.Data)
		}
	}
}

func TestRestartWithRecoveredRBPEX(t *testing.T) {
	r := newRig(t, page.Partitioning{})
	ssd := simdisk.New(simdisk.Instant)
	meta := simdisk.New(simdisk.Instant)
	srv := r.server(t, Config{BlobPrefix: "db/", CacheSSD: ssd, CacheMeta: meta})
	end := r.emit(t, imageRec(2, 'm'), wal.NewCommit(1, 1))
	if _, err := srv.GetPage(context.Background(), 2, end-1); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.FlushForBackup(); err != nil {
		t.Fatal(err)
	}
	srv.Stop()

	// Restart over the same local devices: RBPEX recovers, apply resumes
	// from the checkpoint LSN, and the page is served without reseeding.
	reads0, _, _, _ := r.store.Stats()
	srv2 := r.server(t, Config{BlobPrefix: "db/", CacheSSD: ssd, CacheMeta: meta})
	pg, err := srv2.GetPage(context.Background(), 2, end-1)
	if err != nil || pg.Data[0] != 'm' {
		t.Fatalf("after restart: %+v %v", pg, err)
	}
	reads1, _, _, _ := r.store.Stats()
	// The restart may read its small metadata blob, but must not refetch
	// page blobs: the recovered RBPEX already holds them.
	if reads1-reads0 > 2 {
		t.Fatalf("restart read %d blobs from XStore despite recovered RBPEX", reads1-reads0)
	}
}

func TestColdStartSeedsFromXStore(t *testing.T) {
	r := newRig(t, page.Partitioning{})
	srv := r.server(t, Config{BlobPrefix: "db/", Name: "gen1"})
	end := r.emit(t, imageRec(1, 'a'), imageRec(2, 'b'), imageRec(3, 'c'),
		wal.NewCommit(1, 1))
	if _, err := srv.GetPage(context.Background(), 3, end-1); err != nil {
		t.Fatal(err)
	}
	resume, err := srv.FlushForBackup()
	if err != nil {
		t.Fatal(err)
	}
	srv.Stop()

	// A replacement server with fresh local devices seeds from XStore and
	// serves everything.
	srv2 := r.server(t, Config{BlobPrefix: "db/", Name: "gen2",
		StartLSN: resume, Seed: true})
	waitSeeded(t, srv2)
	for i, want := range []byte{'a', 'b', 'c'} {
		pg, err := srv2.GetPage(context.Background(), page.ID(i+1), end-1)
		if err != nil || pg.Data[0] != want {
			t.Fatalf("page %d after reseed: %+v %v", i+1, pg, err)
		}
	}
}

func TestHandlerGetPageAndRange(t *testing.T) {
	r := newRig(t, page.Partitioning{})
	srv := r.server(t, Config{})
	end := r.emit(t, imageRec(1, 'a'), wal.NewCommit(1, 1))

	r.net.Serve("ps", srv.Handler())
	c := rbio.NewClient(r.net.Dial("ps"))

	resp, err := c.Call(context.Background(), &rbio.Request{Type: rbio.MsgGetPage, Page: 1, LSN: end - 1})
	if err != nil {
		t.Fatal(err)
	}
	pg, err := DecodePage(resp.Payload)
	if err != nil || pg.Data[0] != 'a' {
		t.Fatalf("single: %v %v", pg, err)
	}

	resp, err = c.Call(context.Background(), &rbio.Request{Type: rbio.MsgReadState})
	if err != nil || resp.LSN != srv.AppliedLSN() {
		t.Fatalf("state: %+v %v", resp, err)
	}
}

// A GetPage payload is exactly one page image: a short one, and two images
// back to back, are refused.
func TestDecodePagesRejectsMisaligned(t *testing.T) {
	if _, err := DecodePage(make([]byte, 100)); err == nil {
		t.Fatal("misaligned payload accepted")
	}
	img, err := (&page.Page{ID: 1, LSN: 2, Type: page.TypeLeaf, Data: []byte("x")}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodePage(append(append([]byte(nil), img...), img...)); err == nil {
		t.Fatal("two-page payload accepted")
	}
	if _, err := DecodePage(img); err != nil {
		t.Fatalf("one page image refused: %v", err)
	}
}

func TestApplyLagTimesOut(t *testing.T) {
	r := newRig(t, page.Partitioning{})
	srv := r.server(t, Config{})
	if err := srv.waitApplied(context.Background(), 9999, 20*time.Millisecond); !errors.Is(err, socerr.ErrTimeout) {
		t.Fatalf("waitApplied for an unreachable LSN: %v, want socerr.ErrTimeout", err)
	}
}

// TestGetPageStopsWaitingWhenCallerLeaves: a GetPage whose caller has given
// up — its ctx cancelled, as serveConn cancels when the peer leaves — does
// not wait behind apply lag for the page server's own deadline.
func TestGetPageStopsWaitingWhenCallerLeaves(t *testing.T) {
	r := newRig(t, page.Partitioning{})
	srv := r.server(t, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := srv.GetPage(ctx, 5, srv.AppliedLSN()+100); !errors.Is(err, context.Canceled) {
		t.Fatalf("GetPage with its caller gone: %v, want context.Canceled", err)
	}
}

// TestCheckpointKeepsNewerDirtyMark: the apply loop marks a page dirty
// before its Put lands, so a sweep can read (and persist) the version
// before. The mark must survive that sweep — cleared by page ID alone, the
// newer version would miss every later checkpoint while the resume LSN
// moves past it, and a server seeded from XStore would never see it.
func TestCheckpointKeepsNewerDirtyMark(t *testing.T) {
	r := newRig(t, page.Partitioning{})
	srv := r.server(t, Config{CheckpointEvery: time.Hour}) // sweeps only when called
	end := r.emit(t, imageRec(5, 'a'), wal.NewCommit(1, 1))
	if !srv.WaitApplied(end, 5*time.Second) {
		t.Fatal("apply watermark never reached the emitted batch")
	}
	v1, ok := srv.cache.Get(5)
	if !ok {
		t.Fatal("page 5 not cached after apply")
	}
	stored := func() page.LSN { return storedLSN(t, r, srv, 5) }

	// The next version is marked, its Put still in flight: the sweep sees v1.
	v2 := &page.Page{ID: 5, LSN: v1.LSN + 10, Type: page.TypeLeaf, Data: []byte{'b'}}
	srv.markDirty(v2)
	if _, err := srv.sweep(); err != nil {
		t.Fatal(err)
	}
	if stored() != v1.LSN || dirtyPages(srv) != 1 {
		t.Fatalf("after the early sweep: stored lsn %d (want %d), dirty %d (want 1)",
			stored(), v1.LSN, dirtyPages(srv))
	}
	// The Put lands; the next sweep persists v2 and only then clears the mark.
	if err := srv.cache.Put(v2); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.sweep(); err != nil {
		t.Fatal(err)
	}
	if stored() != v2.LSN || dirtyPages(srv) != 0 {
		t.Fatalf("after the second sweep: stored lsn %d (want %d), dirty %d (want 0)",
			stored(), v2.LSN, dirtyPages(srv))
	}
}

// TestFailedPullLeavesPublishedVersions: within a pull redo edits the
// versions it built in place, so a pull that fails midway must let none of
// them out and must not have written a version anyone holds. After pull N
// the test holds the cached version of page P and a GetPage response for
// it, while a reader keeps reading both (the race detector sees any write
// into them). Pull N+1 carries three records for P — the third overflows the
// page — and one for page Q; it fails, and P and Q are still pull N's
// versions. A clean re-pull, the third record fixed, leaves P as
// copy-on-write redo would, and its ps.apply event counts both pages and
// all four records.
func TestFailedPullLeavesPublishedVersions(t *testing.T) {
	r := newRig(t, page.Partitioning{})
	flight := obs.NewFlightRecorder(64)
	srv := r.server(t, Config{Obs: obs.Plane{Flight: flight}})
	leaf := buildLeafRecords(t, 3)
	p := leaf[0].Page
	q := &wal.Record{Kind: wal.KindPageImage, Page: p + 100, PageType: page.TypeLeaf, Value: btree.EmptyNodePayload()}
	end := r.emit(t, append(leaf, q, wal.NewCommit(1, 1))...)
	if !srv.WaitApplied(end, 5*time.Second) {
		t.Fatal("pull N never applied")
	}
	srv.Stop() // the test drives applyPull itself from here
	held, ok := srv.cache.Get(p)
	heldQ, okQ := srv.cache.Get(q.Page)
	if !ok || !okQ {
		t.Fatal("pull N's pages are not cached")
	}
	want := held.Clone()
	resp := srv.Handler()(context.Background(), &rbio.Request{Type: rbio.MsgGetPage, Page: p, LSN: end - 1})
	if resp.Status != rbio.StatusOK {
		t.Fatal(resp.Error)
	}
	wantResp := bytes.Clone(resp.Payload)

	stop := make(chan struct{})
	read := make(chan int)
	go func() { // a reader of the held version and the response, as GetPage's callers are
		sum := 0
		for {
			select {
			case <-stop:
				read <- sum
				return
			default:
			}
			for _, b := range held.Data {
				sum += int(b)
			}
			for _, b := range resp.Payload {
				sum += int(b)
			}
		}
	}()

	// pull applies pull N+1 and returns its records for P.
	pull := func(third []byte) ([]*wal.Record, error) {
		bld := wal.NewBuilder(end, page.Partitioning{})
		var recs []*wal.Record
		for i, v := range [][]byte{[]byte("first"), []byte("second"), third} {
			rec := &wal.Record{Kind: wal.KindCellPut, Page: p, PageType: page.TypeLeaf,
				Key: []byte(fmt.Sprintf("k%05d", i)), Value: v}
			bld.Append(rec)
			recs = append(recs, rec)
		}
		bld.Append(&wal.Record{Kind: wal.KindCellPut, Page: q.Page, PageType: page.TypeLeaf,
			Key: []byte("q"), Value: []byte("q")})
		b := bld.Flush()
		return recs, srv.applyPull(end, b.End, b.Encode())
	}
	if _, err := pull(make([]byte, page.MaxData)); err == nil {
		t.Fatal("a pull whose third record overflows its page applied")
	}
	if got, _ := srv.cache.Get(p); got != held {
		t.Fatal("the failed pull published a version of P")
	}
	if got, _ := srv.cache.Get(q.Page); got != heldQ {
		t.Fatal("the failed pull published a version of Q")
	}
	recs, err := pull([]byte("third"))
	if err != nil {
		t.Fatal(err)
	}
	close(stop)
	<-read
	if held.LSN != want.LSN || !bytes.Equal(held.Data, want.Data) || !bytes.Equal(resp.Payload, wantResp) {
		t.Fatal("redo wrote into a version a reader holds")
	}
	ref := held
	for _, rec := range recs {
		if ref, _, err = btree.Apply(ref, rec); err != nil {
			t.Fatal(err)
		}
	}
	events := flight.Events()
	if last := events[len(events)-1]; last.Kind != "ps.apply" || !strings.HasSuffix(last.Detail, "pages=2 records=4") {
		t.Fatalf("the re-pull's flight event: %s %q", last.Kind, last.Detail)
	}
	got, _ := srv.cache.Get(p)
	if got.LSN != ref.LSN || !bytes.Equal(got.Data, ref.Data) {
		t.Fatalf("after the re-pull P is at LSN %d, %d bytes; copy-on-write redo gives LSN %d, %d bytes",
			got.LSN, len(got.Data), ref.LSN, len(ref.Data))
	}
}

// waitSeeded waits until srv's cache holds every page blob of its
// partition in XStore, which is what a finished seed loop leaves.
func waitSeeded(t *testing.T, srv *Server) {
	t.Helper()
	prefix := srv.cfg.BlobPrefix + "page/"
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(time.Millisecond) {
		seeded := true
		for _, name := range srv.cfg.Store.List(prefix) {
			id, err := strconv.ParseUint(name[len(prefix):], 10, 64)
			if err == nil && srv.Owns(page.ID(id)) && !srv.Cache().Contains(page.ID(id)) {
				seeded = false
			}
		}
		if seeded {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("seeding never finished")
		}
	}
}

// dirtyPages is the size of srv's un-checkpointed dirty set.
func dirtyPages(srv *Server) int {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	return len(srv.dirty)
}
