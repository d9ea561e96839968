package recovery

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"socrates/internal/engine"
	"socrates/internal/fcb"
	"socrates/internal/page"
	"socrates/internal/wal"
)

// buildHistory produces a database and its full log via an in-memory engine.
func buildHistory(t *testing.T, rows int) (*fcb.MemFile, engine.MemPipeline, *engine.Engine) {
	t.Helper()
	pages := fcb.NewMemFile()
	pipe := engine.NewMemPipeline()
	e, err := engine.Create(engine.Config{Pages: pages, Log: pipe})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		tx := e.Begin()
		if err := tx.Put("t", []byte(fmt.Sprintf("k%04d", i)),
			[]byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	return pages, pipe, e
}

// memPuller serves a MemLog as block pulls.
type memPuller struct {
	blocks []*wal.Block
}

func newMemPuller(pipe engine.MemPipeline) *memPuller {
	// Cut one block per record run delimited at commit boundaries.
	bld := wal.NewBuilder(1, page.Partitioning{})
	var blocks []*wal.Block
	for _, rec := range pipe.Since(0) {
		// Re-append to preserve LSNs: the builder assigns the same dense
		// sequence the MemLog did.
		bld.Append(&wal.Record{Txn: rec.Txn, Kind: rec.Kind, Page: rec.Page,
			PageType: rec.PageType, Key: rec.Key, Value: rec.Value})
		if rec.Kind == wal.KindTxnCommit {
			blocks = append(blocks, bld.Flush())
		}
	}
	if b := bld.Flush(); b != nil {
		blocks = append(blocks, b)
	}
	return &memPuller{blocks: blocks}
}

func (p *memPuller) Pull(_ context.Context, from page.LSN, _ int32, maxBytes int) ([]byte, page.LSN, error) {
	var out []byte
	next := from
	for _, b := range p.blocks {
		if b.Start != next {
			continue
		}
		out = append(out, b.Encode()...)
		next = b.End
		if len(out) >= maxBytes {
			break
		}
	}
	return out, next, nil
}

func TestFullReplayMatchesSource(t *testing.T) {
	srcPages, pipe, src := buildHistory(t, 200)
	_ = srcPages

	replayPages := fcb.NewMemFile()
	r := NewReplayer(Restore{replayPages}, 1)
	if _, err := r.ReplayRange(context.Background(), newMemPuller(pipe), 0); err != nil {
		t.Fatal(err)
	}
	if r.Visible() != src.Clock().Visible() {
		t.Fatalf("visible = %d, want %d", r.Visible(), src.Clock().Visible())
	}
	if r.Redone() == 0 {
		t.Fatal("nothing replayed")
	}

	eng, err := engine.Open(engine.Config{Pages: replayPages, ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	eng.Clock().Publish(r.Visible())
	count := 0
	if err := eng.BeginRO().Scan("t", nil, nil, func(k, v []byte) bool {
		count++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if count != 200 {
		t.Fatalf("replayed rows = %d, want 200", count)
	}
}

func TestStopLSNCutsHistory(t *testing.T) {
	_, pipe, _ := buildHistory(t, 50)
	puller := newMemPuller(pipe)

	// Find the LSN after the 10th commit.
	commits := 0
	var cut page.LSN
	for _, rec := range pipe.Since(0) {
		if rec.Kind == wal.KindTxnCommit {
			commits++
			if commits == 11 { // bootstrap + DDL + 9 row commits
				cut = rec.LSN + 1
				break
			}
		}
	}
	if cut == 0 {
		t.Fatal("cut point not found")
	}

	pages := fcb.NewMemFile()
	r := NewReplayer(Restore{pages}, 1)
	if _, err := r.ReplayRange(context.Background(), puller, cut); err != nil {
		t.Fatal(err)
	}
	eng, err := engine.Open(engine.Config{Pages: pages, ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	eng.Clock().Publish(r.Visible())
	count := 0
	_ = eng.BeginRO().Scan("t", nil, nil, func(k, v []byte) bool {
		count++
		return true
	})
	if count != 9 {
		t.Fatalf("rows at cut = %d, want 9", count)
	}
}

func TestReplayIsIdempotent(t *testing.T) {
	_, pipe, _ := buildHistory(t, 40)
	puller := newMemPuller(pipe)
	pages := fcb.NewMemFile()
	first := NewReplayer(Restore{pages}, 1)
	if _, err := first.ReplayRange(context.Background(), puller, 0); err != nil {
		t.Fatal(err)
	}
	// Replaying the same range again applies nothing (LSN guard).
	second := NewReplayer(Restore{pages}, 1)
	if _, err := second.ReplayRange(context.Background(), puller, 0); err != nil {
		t.Fatal(err)
	}
	if second.Redone() != 0 {
		t.Fatalf("second replay applied %d records (first applied %d)", second.Redone(), first.Redone())
	}
}

func TestReplayRejectsGarbage(t *testing.T) {
	r := NewReplayer(Restore{fcb.NewMemFile()}, 1)
	if err := r.ApplyBlocks([]byte("not a block"), 0); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestApplyRecordErrorsSurface(t *testing.T) {
	pages := fcb.NewMemFile()
	r := NewReplayer(Restore{pages}, 1)
	// A cell-put against a page that never got an image record: the page
	// materializes empty and the put applies — no error. But a corrupt
	// payload must surface.
	rec := &wal.Record{LSN: 5, Kind: wal.KindCellPut, Page: 9,
		PageType: page.TypeLeaf, Key: []byte("k"), Value: []byte("v")}
	if err := r.ApplyRecord(rec, 0); err != nil {
		t.Fatalf("fresh-page cell put: %v", err)
	}
	if err := r.PageSet().Install(); err != nil {
		t.Fatal(err)
	}
	// Now corrupt the page and watch redo fail loudly.
	pg, err := pages.Read(9)
	if err != nil {
		t.Fatal(err)
	}
	pg.Data = []byte{0xFF} // not a node encoding
	_ = pages.Write(pg)
	rec2 := &wal.Record{LSN: 6, Kind: wal.KindCellPut, Page: 9,
		PageType: page.TypeLeaf, Key: []byte("k2")}
	if err := r.ApplyRecord(rec2, 0); err == nil {
		t.Fatal("corrupt page redo succeeded")
	}
}

func TestPullerErrorPropagates(t *testing.T) {
	r := NewReplayer(Restore{fcb.NewMemFile()}, 1)
	boom := errors.New("source gone")
	_, err := r.ReplayRange(context.Background(), errPuller{boom}, 0)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
}

type errPuller struct{ err error }

func (p errPuller) Pull(context.Context, page.LSN, int32, int) ([]byte, page.LSN, error) {
	return nil, 0, p.err
}
