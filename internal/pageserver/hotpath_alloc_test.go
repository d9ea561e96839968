package pageserver

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"socrates/internal/btree"
	"socrates/internal/fcb"
	"socrates/internal/page"
	"socrates/internal/rbio"
	"socrates/internal/testutil"
	"socrates/internal/wal"
)

// TestGetPageAllocs is the allocation contract for the warm-cache
// GetPage@LSN path — the paper's defining latency path — in its three forms:
// one page, one page redo built served over RBIO, and one page the server
// read off a device served over RBIO. The servers are stopped before
// measuring so the background pull and checkpoint loops cannot pollute the
// global allocation counter; a stopped server still serves cached pages (the
// apply watermark is already past minLSN).
func TestGetPageAllocs(t *testing.T) {
	testutil.SkipIfRace(t)

	r := newRig(t, page.Partitioning{})
	srv := r.server(t, Config{})
	end := r.emit(t, imageRec(5, 'a'), wal.NewCommit(1, 1))

	ctx := context.Background()
	minLSN := end.Prev()
	if _, err := srv.GetPage(ctx, 5, minLSN); err != nil {
		t.Fatal(err)
	}
	resume, err := srv.FlushForBackup()
	if err != nil {
		t.Fatal(err)
	}
	srv.Stop() // quiesce background loops; the cache stays warm

	// A second server seeded from the checkpoint holds page 5 as the image
	// it read from XStore.
	seeded := r.server(t, Config{Name: "seeded", StartLSN: resume, Seed: true})
	if _, err := seeded.GetPage(ctx, 5, minLSN); err != nil {
		t.Fatal(err)
	}
	waitSeeded(t, seeded)
	seeded.Stop()
	cached, ok := seeded.cache.Get(5)
	if !ok || cached.Image() == nil {
		t.Fatalf("seeded page 5: cached=%v, want the image read from XStore", ok)
	}

	req := &rbio.Request{Type: rbio.MsgGetPage, Page: 5, LSN: minLSN}
	serve := func(s *Server) func() error {
		handle := s.Handler()
		return func() error {
			if resp := handle(ctx, req); resp.Status != rbio.StatusOK {
				return errors.New(resp.Error)
			}
			return nil
		}
	}
	for _, c := range []struct {
		name   string
		budget float64
		op     func() error
	}{
		// The page is served from cache without copying; with the
		// observability plane off nothing else allocates either.
		{"GetPage", 0, func() error {
			_, err := srv.GetPage(ctx, 5, minLSN)
			return err
		}},
		// A page redo built: the response and the payload buffer its image
		// is encoded into.
		{"Handler", 2, serve(srv)},
		// A page read off a device: the response only — the payload is the
		// image the page was read from.
		{"Handler/device-read", 1, serve(seeded)},
	} {
		avg := testing.AllocsPerRun(200, func() {
			if err := c.op(); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("warm %s: %.1f allocs/op (budget %.0f)", c.name, avg, c.budget)
		if avg > c.budget {
			t.Errorf("warm %s: %.1f allocs/op, budget %.0f", c.name, avg, c.budget)
		}
	}

	resp := seeded.Handler()(ctx, req)
	if resp.Status != rbio.StatusOK {
		t.Fatal(resp.Error)
	}
	if &resp.Payload[0] != &cached.Image()[0] {
		t.Fatal("device-read page: the response payload is a copy, not the cached image")
	}
}

// TestApplyFeedAllocs is the allocation contract for the apply feed: the
// per-record redo path (the cursor under the recovery.Owned policy) in both
// of its forms, and one pull of the online loop. For redo, the pull's page
// set and target page are warm — exactly the state of a pull coalescing many
// records onto one hot page — so the measured cost is btree redo itself, not
// the set's bookkeeping. The first record of a pull for a cached page copies it: the
// spliced payload and the new page around it, 2. Every later record of the
// same pull edits that version in place: 0 while its payload has room. The
// pull runs on the stopped server, under its cancelled context: its cost is
// building the request and giving it up. A pull on a live, caught-up feed
// waits at XLOG for log and measures nothing.
func TestApplyFeedAllocs(t *testing.T) {
	testutil.SkipIfRace(t)

	r := newRig(t, page.Partitioning{})
	srv := r.server(t, Config{})
	// buildLeafRecords yields a validly formatted leaf image (page 1) plus
	// one cell-put; redo below needs a decodable node, not a toy payload.
	imgRecs := buildLeafRecords(t, 1)
	target := imgRecs[0].Page
	end := r.emit(t, append(imgRecs, wal.NewCommit(1, 1))...)
	if !srv.WaitApplied(end, 5*time.Second) {
		t.Fatal("apply watermark never reached the emitted batch")
	}
	srv.Stop() // quiesce background loops

	pg, ok := srv.cache.Get(target)
	if !ok {
		t.Fatalf("page %d not cached after apply", target)
	}
	before := pg.Clone()

	// Pre-build the records so record construction is not measured; each
	// carries the next LSN so redo actually mutates the page every run.
	const runs = 200
	recs := make([]*wal.Record, 2*(runs+1))
	lsn := pg.LSN
	for i := range recs {
		lsn = lsn.Next()
		recs[i] = &wal.Record{Kind: wal.KindCellPut, Page: target,
			Key: []byte("k"), Value: []byte("v"), LSN: lsn}
	}
	i := 0
	apply := func() {
		if err := srv.redo.ApplyRecord(recs[i], 0); err != nil {
			t.Fatal(err)
		}
		i++
	}
	for _, c := range []struct {
		name   string
		before func() // the set as the pull has it when the record comes
		budget float64
	}{
		// The cache's version, as Owned.Page stages it in the set: not owned.
		{"first redo of a cached page", func() { srv.redo.PageSet().Stage(pg, false) }, 2},
		// The version the previous run built, still the pull's own.
		{"redo onto the pull's own version", func() {}, 0},
	} {
		avg := testing.AllocsPerRun(runs, func() { c.before(); apply() })
		t.Logf("%s: %.1f allocs/op (budget %v)", c.name, avg, c.budget)
		if avg > c.budget {
			t.Fatalf("%s: %.1f allocs/op, budget %v", c.name, avg, c.budget)
		}
	}
	if pg.LSN != before.LSN || !bytes.Equal(pg.Data, before.Data) {
		t.Fatal("redo changed the cached version it copied")
	}

	applied := srv.AppliedLSN()
	avg := testing.AllocsPerRun(runs, func() {
		err := srv.redo.Pull(srv.ctx, srv.cfg.XLOG, int32(srv.cfg.Partition), srv.cfg.PullBytes, srv.applyPull)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("pull on a stopped server: %v, want context.Canceled", err)
		}
	})
	if got := srv.AppliedLSN(); got != applied {
		t.Fatalf("a cancelled pull moved the apply watermark %d -> %d", applied, got)
	}
	const pullBudget = 4
	t.Logf("cancelled pull: %.1f allocs/op (budget %d)", avg, pullBudget)
	if avg > pullBudget {
		t.Fatalf("cancelled pull: %.1f allocs/op, budget %d", avg, pullBudget)
	}
}

// buildLeafRecords constructs page-image records for leaf pages holding
// known cells, via a real tree build on a scratch pager.
func buildLeafRecords(t *testing.T, rows int) []*wal.Record {
	t.Helper()
	pager := &scratchPager{MemFile: fcb.NewMemFile()}
	log := wal.NewMemLog()
	tree, err := btree.Create(pager, log, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		if err := tree.Put(0, []byte(fmt.Sprintf("k%05d", i)),
			[]byte(fmt.Sprintf("value-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	return log.Since(0)
}

type scratchPager struct {
	*fcb.MemFile
	next uint64
}

func (p *scratchPager) Allocate(t page.Type) (*page.Page, error) {
	p.next++
	return page.New(page.ID(p.next), t), nil
}
