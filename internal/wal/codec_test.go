package wal

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"socrates/internal/page"
	"socrates/internal/testutil"
)

// putBlock is a flushed block of n cell puts, each with a key and a value,
// over pages in several partitions.
func putBlock(n int) *Block {
	bld := NewBuilder(1000, page.Partitioning{PagesPerPartition: 16})
	for i := 0; i < n; i++ {
		bld.Append(&Record{Kind: KindCellPut, Txn: uint64(i/4 + 1), Page: page.ID(i % 40),
			PageType: page.TypeLeaf, Key: []byte(fmt.Sprintf("key-%06d", i)),
			Value: bytes.Repeat([]byte{byte(i)}, 100)})
	}
	return bld.Flush()
}

// TestBlockCodecAllocs is the allocation contract of the log codec: a
// block costs the same number of allocations whatever its record count.
// Encode writes into one buffer of EncodedSize bytes; DecodeBlock makes the
// Block, its Partitions, one Record array and the pointers into it, and
// the records alias the image.
func TestBlockCodecAllocs(t *testing.T) {
	testutil.SkipIfRace(t)
	b := putBlock(64)
	if len(b.Records) != 64 || len(b.Partitions) == 0 {
		t.Fatalf("block has %d records, %d partitions", len(b.Records), len(b.Partitions))
	}
	if got := testing.AllocsPerRun(100, func() { _ = b.Encode() }); got != 1 {
		t.Errorf("Encode of a 64-record block: %.0f allocations, want 1", got)
	}
	enc := b.Encode()
	got := testing.AllocsPerRun(100, func() {
		if _, _, err := DecodeBlock(enc); err != nil {
			t.Fatal(err)
		}
	})
	if got > 4 {
		t.Errorf("DecodeBlock of a 64-record block: %.0f allocations, budget 4", got)
	}
}

// A header's record count is outside the CRC: a hostile count is rejected
// before anything is sized by it.
func TestDecodeBlockRejectsImpossibleRecordCount(t *testing.T) {
	enc := putBlock(8).Encode()
	enc[20], enc[21], enc[22], enc[23] = 0xFF, 0xFF, 0xFF, 0xFF
	if _, _, err := DecodeBlock(enc); !errors.Is(err, errBadBlock) {
		t.Fatalf("nrec 0xFFFFFFFF: err %v, want ErrBadBlock", err)
	}
	if testutil.RaceEnabled {
		return
	}
	// The rejection costs what any rejection costs, its error (plus the
	// count it quotes), and nothing for the records the header claims.
	badMagic := append([]byte(nil), enc...)
	badMagic[0] ^= 0xFF
	baseline := testing.AllocsPerRun(50, func() { _, _, _ = DecodeBlock(badMagic) })
	got := testing.AllocsPerRun(50, func() { _, _, _ = DecodeBlock(enc) })
	if got > baseline+1 {
		t.Fatalf("rejecting nrec 0xFFFFFFFF: %.0f allocations, a bad magic costs %.0f", got, baseline)
	}
}

// Decoded keys and values alias the image with their capacity capped, so
// appending to one reallocates instead of overwriting the bytes after it:
// the next field, or the next record.
func TestDecodedRecordsAreCapped(t *testing.T) {
	enc := putBlock(9).Encode()
	image := append([]byte(nil), enc...)
	b, _, err := DecodeBlock(enc)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range b.Records {
		_ = append(r.Key, 0xEE, 0xEE, 0xEE, 0xEE)
		_ = append(r.Value, 0xEE, 0xEE, 0xEE, 0xEE)
	}
	if !bytes.Equal(enc, image) {
		t.Fatal("appending to decoded records wrote into the block image")
	}
}

// FuzzDecodeBlock: decoding never panics, and a successful decode
// re-encodes to exactly the bytes it consumed.
func FuzzDecodeBlock(f *testing.F) {
	r := rand.New(rand.NewSource(35))
	for i := 0; i < 8; i++ {
		v, ok := quick.Value(reflect.TypeOf([]recSpec(nil)), r)
		if !ok {
			f.Fatal("cannot generate record specs")
		}
		specs := v.Interface().([]recSpec)
		if len(specs) == 0 {
			continue
		}
		enc := specBlock(specs, r.Uint32()).Encode()
		f.Add(enc)
		f.Add(enc[:len(enc)/2])
	}
	f.Add(putBlock(4).Encode())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		b, n, err := DecodeBlock(data)
		if err != nil {
			if !errors.Is(err, errBadBlock) {
				t.Fatalf("error %v is not ErrBadBlock", err)
			}
			return
		}
		if got := b.Encode(); !bytes.Equal(got, data[:n]) {
			t.Fatalf("re-encoding differs from the %d bytes consumed:\n got %x\nwant %x", n, got, data[:n])
		}
	})
}
