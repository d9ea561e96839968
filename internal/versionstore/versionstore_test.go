package versionstore

import (
	"bytes"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"testing/quick"

	"socrates/internal/btree"
	"socrates/internal/fcb"
	"socrates/internal/page"
	"socrates/internal/testutil"
	"socrates/internal/wal"
)

type testPager struct {
	*fcb.MemFile
	next atomic.Uint64
}

func newTestPager() *testPager {
	p := &testPager{MemFile: fcb.NewMemFile()}
	p.next.Store(1)
	return p
}

func (p *testPager) Allocate(t page.Type) (*page.Page, error) {
	return page.New(page.ID(p.next.Add(1)), t), nil
}

func newStore(t *testing.T) (*Store, *testPager, *wal.MemLog) {
	t.Helper()
	pager := newTestPager()
	log := wal.NewMemLog()
	s, err := New(pager, log, page.InvalidID)
	if err != nil {
		t.Fatal(err)
	}
	return s, pager, log
}

// appendOne appends v as a commit of its own would: into a page set over the
// store's pager, installed at once.
func appendOne(s *Store, txn uint64, v *Version) (Ptr, error) {
	w := btree.NewPageSet(s.pager)
	ptr, err := s.Append(w, txn, v)
	if err != nil {
		return Ptr{}, err
	}
	return ptr, w.Install()
}

func TestVersionCodecRoundTrip(t *testing.T) {
	v := &Version{CommitTS: 42, Prev: Ptr{Page: 7, slot: 3},
		Tombstone: true, Payload: []byte("old row")}
	got, err := Decode(v.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.CommitTS != 42 || got.Prev != (Ptr{7, 3}) || !got.Tombstone ||
		!bytes.Equal(got.Payload, v.Payload) {
		t.Fatalf("got %+v", got)
	}
}

func TestVersionCodecProperty(t *testing.T) {
	f := func(ts uint64, pg uint64, slot uint32, tomb bool, payload []byte) bool {
		v := &Version{CommitTS: ts, Prev: Ptr{Page: page.ID(pg), slot: slot},
			Tombstone: tomb}
		if len(payload) > 0 {
			v.Payload = payload
		}
		got, err := Decode(v.Encode())
		if err != nil {
			return false
		}
		return got.CommitTS == v.CommitTS && got.Prev == v.Prev &&
			got.Tombstone == v.Tombstone && bytes.Equal(got.Payload, v.Payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeRejectsShortBlob(t *testing.T) {
	if _, err := Decode(make([]byte, 10)); err == nil {
		t.Fatal("short blob accepted")
	}
}

func TestAppendAndGet(t *testing.T) {
	s, _, _ := newStore(t)
	ptr, err := appendOne(s, 1, &Version{CommitTS: 10, Payload: []byte("v1")})
	if err != nil {
		t.Fatal(err)
	}
	if ptr.isNil() {
		t.Fatal("nil pointer returned")
	}
	got, err := s.get(ptr)
	if err != nil || got.CommitTS != 10 || string(got.Payload) != "v1" {
		t.Fatalf("get = %+v %v", got, err)
	}
}

func TestGetNilAndDanglingPtr(t *testing.T) {
	s, _, _ := newStore(t)
	if _, err := s.get(Ptr{}); !errors.Is(err, errNotFound) {
		t.Fatalf("nil ptr err = %v", err)
	}
	ptr, _ := appendOne(s, 1, &Version{CommitTS: 1})
	if _, err := s.get(Ptr{Page: ptr.Page, slot: 999}); !errors.Is(err, errNotFound) {
		t.Fatalf("dangling slot err = %v", err)
	}
}

func TestChainWalkVisibility(t *testing.T) {
	s, _, _ := newStore(t)
	// Build a chain: v@10 -> v@20 -> v@30 (newest at head).
	p10, _ := appendOne(s, 1, &Version{CommitTS: 10, Payload: []byte("ten")})
	p20, _ := appendOne(s, 1, &Version{CommitTS: 20, Prev: p10, Payload: []byte("twenty")})
	head := Version{CommitTS: 30, Prev: p20, Payload: []byte("thirty")}

	cases := []struct {
		ts   uint64
		want string
		nil_ bool
	}{
		{5, "", true}, // before first version
		{10, "ten", false},
		{15, "ten", false},
		{20, "twenty", false},
		{29, "twenty", false},
		{30, "thirty", false},
		{100, "thirty", false},
	}
	for _, c := range cases {
		got, ok, err := s.Visible(head, c.ts)
		if err != nil {
			t.Fatalf("ts %d: %v", c.ts, err)
		}
		if c.nil_ {
			if ok {
				t.Fatalf("ts %d: got %+v, want none", c.ts, got)
			}
			continue
		}
		if !ok || string(got.Payload) != c.want {
			t.Fatalf("ts %d: got %+v, want %q", c.ts, got, c.want)
		}
	}
}

// TestVisibleChainAllocs is the allocation contract of a chain walk: a read
// three versions down the chain decodes each one where it lies in its
// version page and allocates nothing.
func TestVisibleChainAllocs(t *testing.T) {
	testutil.SkipIfRace(t)
	s, _, _ := newStore(t)
	p10, _ := appendOne(s, 1, &Version{CommitTS: 10, Payload: []byte("ten")})
	p20, _ := appendOne(s, 1, &Version{CommitTS: 20, Prev: p10, Payload: []byte("twenty")})
	p30, _ := appendOne(s, 1, &Version{CommitTS: 30, Prev: p20, Payload: []byte("thirty")})
	head := Version{CommitTS: 40, Prev: p30, Payload: []byte("forty")}
	avg := testing.AllocsPerRun(1000, func() {
		v, ok, err := s.Visible(head, 15)
		if err != nil || !ok || v.CommitTS != 10 || string(v.Payload) != "ten" {
			t.Fatal("wrong version at ts 15")
		}
	})
	t.Logf("Visible, 3 versions down: %.1f allocs/op (budget 0)", avg)
	if avg != 0 {
		t.Fatalf("Visible, 3 versions down: %.1f allocs/op, budget 0", avg)
	}
}

func TestTombstoneVisibility(t *testing.T) {
	s, _, _ := newStore(t)
	p10, _ := appendOne(s, 1, &Version{CommitTS: 10, Payload: []byte("alive")})
	head := Version{CommitTS: 20, Prev: p10, Tombstone: true}
	// At ts 25 the row is deleted.
	got, ok, err := s.Visible(head, 25)
	if err != nil || ok {
		t.Fatalf("deleted row visible: %+v %v", got, err)
	}
	// At ts 15 the old version shows through.
	got, ok, err = s.Visible(head, 15)
	if err != nil || !ok || string(got.Payload) != "alive" {
		t.Fatalf("pre-delete version: %+v %v", got, err)
	}
}

func TestPageRollover(t *testing.T) {
	s, pager, _ := newStore(t)
	payload := bytes.Repeat([]byte{9}, 1000)
	var ptrs []Ptr
	for i := 0; i < 40; i++ { // ~40 KB of versions: needs several pages
		ptr, err := appendOne(s, 1, &Version{CommitTS: uint64(i + 1), Payload: payload})
		if err != nil {
			t.Fatal(err)
		}
		ptrs = append(ptrs, ptr)
	}
	if first, last := ptrs[0].Page, ptrs[len(ptrs)-1].Page; last-first < 3 {
		t.Fatalf("versions went to pages %d..%d, want rollover", first, last)
	}
	for i, ptr := range ptrs {
		v, err := s.get(ptr)
		if err != nil || v.CommitTS != uint64(i+1) {
			t.Fatalf("ptr %d: %+v %v", i, v, err)
		}
	}
	_ = pager
}

// TestPageFillsToTheByte fills a version page exactly to page.MaxData under
// Append's page-full rule (CellOverhead per cell): the cell put that lands on
// the boundary must fit, and only the next entry rolls over.
func TestPageFillsToTheByte(t *testing.T) {
	s, pager, _ := newStore(t)
	const entry = btree.CellOverhead + 4 + 21 // a cell beyond its payload: slot key, version header
	payloads := []int{1000, 1000, 1000, 1000, 1000, 1000, 1000}
	left := page.MaxData - len(btree.EmptyNodePayload()) - len(payloads)*(entry+1000)
	payloads = append(payloads, left-entry)
	var ptrs []Ptr
	for i, n := range payloads {
		ptr, err := appendOne(s, 1, &Version{CommitTS: uint64(i + 1), Payload: bytes.Repeat([]byte{7}, n)})
		if err != nil {
			t.Fatalf("entry %d of %d bytes: %v", i, n, err)
		}
		ptrs = append(ptrs, ptr)
	}
	pg, err := pager.Read(ptrs[0].Page)
	if err != nil {
		t.Fatal(err)
	}
	if ptrs[len(ptrs)-1].Page != ptrs[0].Page || len(pg.Data) != page.MaxData {
		t.Fatalf("last entry on page %d, first on %d; page holds %d of %d bytes",
			ptrs[len(ptrs)-1].Page, ptrs[0].Page, len(pg.Data), page.MaxData)
	}
	next, err := appendOne(s, 1, &Version{CommitTS: 99})
	if err != nil || next.Page == ptrs[0].Page {
		t.Fatalf("the entry past a full page went to page %d (%v), want a new one", next.Page, err)
	}
	for i, ptr := range ptrs {
		if v, err := s.get(ptr); err != nil || v.CommitTS != uint64(i+1) || len(v.Payload) != payloads[i] {
			t.Fatalf("entry %d: %+v %v", i, v, err)
		}
	}
}

func TestRecoverAppendStateFromPage(t *testing.T) {
	s, pager, log := newStore(t)
	for i := 0; i < 5; i++ {
		_, _ = appendOne(s, 1, &Version{CommitTS: uint64(i), Payload: []byte("x")})
	}
	cur := s.cur
	// New incarnation (e.g. failover) resumes from the catalog pointer.
	s2, err := New(pager, log, cur)
	if err != nil {
		t.Fatal(err)
	}
	ptr, err := appendOne(s2, 9, &Version{CommitTS: 99, Payload: []byte("post")})
	if err != nil {
		t.Fatal(err)
	}
	if ptr.Page != cur || ptr.slot != 5 {
		t.Fatalf("resumed at %+v, want page %d slot 5", ptr, cur)
	}
}

func TestWatermarkBlocksAncientSnapshots(t *testing.T) {
	s, _, _ := newStore(t)
	p1, _ := appendOne(s, 1, &Version{CommitTS: 10, Payload: []byte("old")})
	head := Version{CommitTS: 50, Prev: p1, Payload: []byte("new")}
	s.SetWatermark(40)
	// Snapshot 20 < watermark and needs the chain: must fail loudly.
	if _, _, err := s.Visible(head, 20); !errors.Is(err, errTruncated) {
		t.Fatalf("err = %v, want ErrTruncated", err)
	}
	// Snapshot 60 resolves at head without touching the chain.
	v, ok, err := s.Visible(head, 60)
	if err != nil || !ok || string(v.Payload) != "new" {
		t.Fatalf("fresh snapshot: %+v %v", v, err)
	}
	// Watermark never regresses.
	s.SetWatermark(5)
	if s.readWatermark() != 40 {
		t.Fatalf("watermark regressed to %d", s.readWatermark())
	}
}

// TestReplicationThroughLog verifies version pages converge on a replica by
// ordinary redo, which is the §3.1 requirement (shared version store).
func TestReplicationThroughLog(t *testing.T) {
	s, _, log := newStore(t)
	p1, _ := appendOne(s, 1, &Version{CommitTS: 10, Payload: []byte("gen1")})
	_, _ = appendOne(s, 1, &Version{CommitTS: 20, Prev: p1, Payload: []byte("gen2")})

	// Replica applies the log into its own page file.
	replicaPages := newTestPager()
	for _, rec := range log.Since(0) {
		if !rec.IsPageOp() {
			continue
		}
		pg, err := replicaPages.Read(rec.Page)
		if errors.Is(err, fcb.ErrNotFound) {
			pg = page.New(rec.Page, rec.PageType)
		} else if err != nil {
			t.Fatal(err)
		}
		pg, _, err = applyRecord(pg, rec)
		if err != nil {
			t.Fatal(err)
		}
		_ = replicaPages.Write(pg)
	}
	rs, err := New(replicaPages, wal.NewMemLog(), s.cur)
	if err != nil {
		t.Fatal(err)
	}
	v, err := rs.get(p1)
	if err != nil || string(v.Payload) != "gen1" {
		t.Fatalf("replica get: %+v %v", v, err)
	}
}

func TestManyVersionsStress(t *testing.T) {
	s, _, _ := newStore(t)
	prev := Ptr{}
	for i := 1; i <= 2000; i++ {
		ptr, err := appendOne(s, 1, &Version{
			CommitTS: uint64(i), Prev: prev,
			Payload: []byte(fmt.Sprintf("gen-%d", i)),
		})
		if err != nil {
			t.Fatal(err)
		}
		prev = ptr
	}
	head, err := s.get(prev)
	if err != nil {
		t.Fatal(err)
	}
	// Walk to an early snapshot through the full chain.
	v, ok, err := s.Visible(head, 3)
	if err != nil || !ok || string(v.Payload) != "gen-3" {
		t.Fatalf("deep walk: %+v %v", v, err)
	}
}
