package wal

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
	"testing/quick"

	"socrates/internal/page"
)

func sampleRecords() []*Record {
	return []*Record{
		{Kind: KindNoop, Txn: 1},
		{Kind: KindCellPut, Txn: 1, Page: 10, PageType: page.TypeLeaf,
			Key: []byte("k1"), Value: []byte("v1")},
		{Kind: KindCellPut, Txn: 1, Page: 250, PageType: page.TypeLeaf,
			Key: []byte("k2")},
		NewCommit(1, 99),
		{Kind: KindPageImage, Txn: 0, Page: 10, PageType: page.TypeLeaf,
			Value: bytes.Repeat([]byte{7}, 100)},
	}
}

func TestRecordRoundTrip(t *testing.T) {
	for _, r := range sampleRecords() {
		r.LSN = 12345
		buf := r.appendTo(nil)
		if len(buf) != r.encodedSize() {
			t.Fatalf("encodedSize %d != actual %d for %v", r.encodedSize(), len(buf), r.Kind)
		}
		var got Record
		n, err := decodeRecord(&got, buf)
		if err != nil {
			t.Fatal(err)
		}
		if n != len(buf) {
			t.Fatalf("consumed %d of %d", n, len(buf))
		}
		if !reflect.DeepEqual(&got, r) {
			t.Fatalf("decoded %+v, want %+v", got, r)
		}
	}
}

func TestDecodeRecordTruncation(t *testing.T) {
	r := &Record{Kind: KindCellPut, Page: 1, Key: []byte("key"), Value: []byte("value")}
	buf := r.appendTo(nil)
	for cut := 0; cut < len(buf); cut++ {
		var got Record
		if _, err := decodeRecord(&got, buf[:cut]); err == nil {
			t.Fatalf("truncation at %d undetected", cut)
		}
	}
}

func TestCommitTS(t *testing.T) {
	r := NewCommit(5, 777)
	if r.CommitTS() != 777 || r.Txn != 5 {
		t.Fatalf("commit record %+v", r)
	}
	other := &Record{Kind: KindNoop}
	if other.CommitTS() != 0 {
		t.Fatal("non-commit record should report 0 commit TS")
	}
}

// TestIsPageOp pins the log's vocabulary: each live kind's byte on the
// wire and whether redo applies it. The retired numbers 1, 3, 6 and 7
// (begin, abort, cell delete, checkpoint) stay reserved and are not page
// ops.
func TestIsPageOp(t *testing.T) {
	for _, c := range []struct {
		kind   Kind
		b      byte
		pageOp bool
	}{
		{KindNoop, 0, false}, {1, 1, false}, {KindTxnCommit, 2, false}, {3, 3, false},
		{KindPageImage, 4, true}, {KindCellPut, 5, true}, {6, 6, false}, {7, 7, false},
	} {
		r := &Record{Kind: c.kind}
		if byte(c.kind) != c.b || r.IsPageOp() != c.pageOp {
			t.Errorf("%v: byte %d, page op %v; want %d, %v", c.kind, byte(c.kind), r.IsPageOp(), c.b, c.pageOp)
		}
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		KindNoop: "noop", KindTxnCommit: "commit", KindPageImage: "page-image", KindCellPut: "cell-put",
		1: "kind(1)", 3: "kind(3)", 6: "kind(6)", 7: "kind(7)", 200: "kind(200)",
	} {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %q, want %q", uint8(k), k.String(), want)
		}
	}
}

func TestBuilderAssignsConsecutiveLSNs(t *testing.T) {
	pt := page.Partitioning{PagesPerPartition: 100}
	bld := NewBuilder(50, pt)
	for i, r := range sampleRecords() {
		lsn := bld.Append(r)
		if lsn != page.LSN(50+i) {
			t.Fatalf("record %d got LSN %d", i, lsn)
		}
	}
	b := bld.Flush()
	if b.Start != 50 || b.End != 55 || len(b.Records) != 5 {
		t.Fatalf("block [%d,%d) with %d records", b.Start, b.End, len(b.Records))
	}
	// Pages 10 (partition 0) and 250 (partition 2) were touched.
	if len(b.Partitions) != 2 || b.Partitions[0] != 0 || b.Partitions[1] != 2 {
		t.Fatalf("partitions = %v", b.Partitions)
	}
	if !b.Touches(0) || !b.Touches(2) || b.Touches(1) {
		t.Fatal("Touches wrong")
	}
}

func TestBuilderFlushResets(t *testing.T) {
	bld := NewBuilder(1, page.Partitioning{})
	bld.Append(&Record{Kind: KindNoop})
	first := bld.Flush()
	if first == nil || len(bld.records) != 0 {
		t.Fatal("flush did not reset builder")
	}
	if bld.Flush() != nil {
		t.Fatal("empty flush should return nil")
	}
	bld.Append(&Record{Kind: KindNoop})
	second := bld.Flush()
	if second.Start != first.End {
		t.Fatalf("blocks not contiguous: %d then %d", first.End, second.Start)
	}
}

func TestBlockRoundTrip(t *testing.T) {
	pt := page.Partitioning{PagesPerPartition: 100}
	bld := NewBuilder(1, pt)
	for _, r := range sampleRecords() {
		bld.Append(r)
	}
	b := bld.Flush()
	buf := b.Encode()
	if len(buf) != b.EncodedSize() {
		t.Fatalf("EncodedSize %d != actual %d", b.EncodedSize(), len(buf))
	}
	got, n, err := DecodeBlock(buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(buf) {
		t.Fatalf("consumed %d of %d", n, len(buf))
	}
	if !reflect.DeepEqual(got, b) {
		t.Fatalf("decoded block differs:\n got %+v\nwant %+v", got, b)
	}
}

func TestBlockStreamDecoding(t *testing.T) {
	pt := page.Partitioning{PagesPerPartition: 10}
	bld := NewBuilder(1, pt)
	var stream []byte
	var want []*Block
	for i := 0; i < 4; i++ {
		bld.Append(&Record{Kind: KindCellPut, Page: page.ID(i * 15),
			Key: []byte{byte(i)}, Value: []byte{byte(i + 1)}})
		b := bld.Flush()
		want = append(want, b)
		stream = append(stream, b.Encode()...)
	}
	var got []*Block
	for len(stream) > 0 {
		b, n, err := DecodeBlock(stream)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, b)
		stream = stream[n:]
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("stream decode mismatch")
	}
}

func TestBlockCorruptionDetected(t *testing.T) {
	bld := NewBuilder(1, page.Partitioning{})
	bld.Append(&Record{Kind: KindCellPut, Page: 1, Key: []byte("k"), Value: []byte("v")})
	buf := bld.Flush().Encode()

	mut := append([]byte(nil), buf...)
	mut[len(mut)-1] ^= 0xFF
	if _, _, err := DecodeBlock(mut); !errors.Is(err, errBadBlock) {
		t.Fatalf("payload corruption: %v", err)
	}

	mut = append([]byte(nil), buf...)
	mut[0] = 0
	if _, _, err := DecodeBlock(mut); !errors.Is(err, errBadBlock) {
		t.Fatalf("magic corruption: %v", err)
	}

	if _, _, err := DecodeBlock(buf[:10]); !errors.Is(err, errBadBlock) {
		t.Fatal("short buffer undetected")
	}
	if _, _, err := DecodeBlock(buf[:len(buf)-3]); !errors.Is(err, errBadBlock) {
		t.Fatal("truncated payload undetected")
	}
}

func TestComputePartitionsIgnoresNonPageOps(t *testing.T) {
	pt := page.Partitioning{PagesPerPartition: 10}
	recs := []*Record{
		{Kind: KindNoop, Txn: 1},
		NewCommit(1, 5),
		{Kind: Kind(7)},
	}
	if got := ComputePartitions(recs, pt); len(got) != 0 {
		t.Fatalf("partitions = %v, want empty", got)
	}
}

func TestComputePartitionsSortedUnique(t *testing.T) {
	pt := page.Partitioning{PagesPerPartition: 10}
	recs := []*Record{
		{Kind: KindCellPut, Page: 95},
		{Kind: KindCellPut, Page: 5},
		{Kind: KindCellPut, Page: 7},
		{Kind: KindPageImage, Page: 50},
	}
	got := ComputePartitions(recs, pt)
	want := []page.PartitionID{0, 5, 9}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("partitions = %v, want %v", got, want)
	}
}

// recSpec is one generated record of the codec property and fuzz seeds.
type recSpec struct {
	Kind  uint8
	Txn   uint64
	Page  uint32
	Key   []byte
	Value []byte
}

// specBlock builds the block the specs describe, as the primary would.
func specBlock(specs []recSpec, startLSN uint32) *Block {
	pt := page.Partitioning{PagesPerPartition: 64}
	norm := func(b []byte) []byte { // decode yields nil for empty fields
		if len(b) == 0 {
			return nil
		}
		return b
	}
	bld := NewBuilder(page.LSN(startLSN), pt)
	for _, s := range specs {
		bld.Append(&Record{
			Kind: Kind(s.Kind % 8), Txn: s.Txn, Page: page.ID(s.Page),
			Key: norm(s.Key), Value: norm(s.Value),
		})
	}
	return bld.Flush()
}

// Property: block codec round-trips arbitrary record batches.
func TestBlockCodecProperty(t *testing.T) {
	f := func(specs []recSpec, startLSN uint32) bool {
		if len(specs) == 0 {
			return true
		}
		b := specBlock(specs, startLSN)
		got, n, err := DecodeBlock(b.Encode())
		if err != nil || n != b.EncodedSize() {
			return false
		}
		return reflect.DeepEqual(got, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: LSNs within a builder's output are dense and blocks abut.
func TestBuilderLSNContiguityProperty(t *testing.T) {
	f := func(batches []uint8) bool {
		bld := NewBuilder(1, page.Partitioning{})
		prevEnd := page.LSN(1)
		for _, n := range batches {
			count := int(n%5) + 1
			for i := 0; i < count; i++ {
				bld.Append(&Record{Kind: KindNoop})
			}
			b := bld.Flush()
			if b.Start != prevEnd || b.End != b.Start+page.LSN(count) {
				return false
			}
			for i, r := range b.Records {
				if r.LSN != b.Start+page.LSN(i) {
					return false
				}
			}
			prevEnd = b.End
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
