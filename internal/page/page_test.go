package page

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"testing"
	"testing/quick"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	p := &Page{ID: 42, LSN: 1000, Type: TypeLeaf, Data: []byte("row data")}
	buf, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) != Size {
		t.Fatalf("image size = %d, want %d", len(buf), Size)
	}
	got, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != p.ID || got.LSN != p.LSN || got.Type != p.Type || !bytes.Equal(got.Data, p.Data) {
		t.Fatalf("decoded %+v, want %+v", got, p)
	}
}

func TestEncodeEmptyPayload(t *testing.T) {
	p := New(7, TypeMeta)
	buf, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Data) != 0 || got.ID != 7 || got.Type != TypeMeta {
		t.Fatalf("decoded %+v", got)
	}
}

func TestEncodeMaxPayload(t *testing.T) {
	p := &Page{ID: 1, Type: TypeLeaf, Data: make([]byte, MaxData)}
	if _, err := p.Encode(); err != nil {
		t.Fatalf("max payload should encode: %v", err)
	}
	p.Data = make([]byte, MaxData+1)
	if _, err := p.Encode(); !errors.Is(err, ErrTooLarge) {
		t.Fatal("oversized payload should fail")
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	p := &Page{ID: 9, LSN: 5, Type: TypeLeaf, Data: []byte("abcdef")}
	buf, _ := p.Encode()

	flipped := append([]byte(nil), buf...)
	flipped[HeaderSize+2] ^= 0xFF // corrupt payload
	if _, err := Decode(flipped); !errors.Is(err, ErrChecksum) {
		t.Fatalf("payload corruption: err = %v, want ErrChecksum", err)
	}

	flipped = append([]byte(nil), buf...)
	flipped[5] ^= 0xFF // corrupt page ID in header
	if _, err := Decode(flipped); !errors.Is(err, ErrChecksum) {
		t.Fatalf("header corruption: err = %v, want ErrChecksum", err)
	}

	flipped = append([]byte(nil), buf...)
	flipped[0] = 0 // break magic
	if _, err := Decode(flipped); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("bad magic: err = %v, want ErrBadMagic", err)
	}

	if _, err := Decode(buf[:100]); err == nil {
		t.Fatal("short buffer should fail")
	}
}

func TestDecodeRejectsOversizedDeclaredLength(t *testing.T) {
	p := &Page{ID: 1, Type: TypeLeaf, Data: []byte("x")}
	buf, _ := p.Encode()
	buf[22] = 0xFF
	buf[23] = 0xFF // declared length 65535 > MaxData
	if _, err := Decode(buf); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
}

func TestClone(t *testing.T) {
	p := &Page{ID: 1, LSN: 2, Type: TypeLeaf, Data: []byte("shared?")}
	c := p.Clone()
	c.Data[0] = 'X'
	c.LSN = 99
	if p.Data[0] != 's' || p.LSN != 2 {
		t.Fatal("clone is not deep")
	}

	// A clone of a decoded page has no image: edited, it encodes as what it
	// holds, never as the image its source was read from.
	buf, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	src, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	c = src.Clone()
	c.LSN = 77
	c.Data = append(c.Data, '!')
	c.Data[0] = 'Y'
	enc, err := c.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.LSN != 77 || string(got.Data) != "Yhared?!" {
		t.Fatalf("edited clone decodes as LSN %d %q, want 77 %q", got.LSN, got.Data, "Yhared?!")
	}
	if src.LSN != 2 || string(src.Data) != "shared?" {
		t.Fatalf("editing the clone changed its source: LSN %d %q", src.LSN, src.Data)
	}
}

// A page built in memory encodes byte for byte as it always has: the image
// below is pinned, header, checksum and the zeroed tail included.
func TestEncodeGolden(t *testing.T) {
	p := &Page{ID: 0x0102030405, LSN: 0xABCDEF, Type: TypeLeaf, Data: []byte("golden payload")}
	buf, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	const head = "e5a7c7500504030201000000efcdab000000000003000e004a8ecf0000000000676f6c64656e207061796c6f6164"
	if got := hex.EncodeToString(buf[:HeaderSize+len(p.Data)]); got != head {
		t.Fatalf("header and payload\n got %s\nwant %s", got, head)
	}
	const sum = "5e4b96793593f177360386e220f586c24280ca47159acc610f6d90b98eeb1cfa"
	if got := fmt.Sprintf("%x", sha256.Sum256(buf)); got != sum {
		t.Fatalf("image sha256 %s, want %s", got, sum)
	}
}

// A decoded page encodes as the image it was read from: Encode returns that
// image itself, and AppendEncode appends a copy of it.
func TestDecodedPageEncodesItsImage(t *testing.T) {
	p := &Page{ID: 9, LSN: 5, Type: TypeLeaf, Data: []byte("abcdef")}
	buf, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if p.Image() != nil {
		t.Fatal("a page built in memory has an image")
	}
	dec, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if img := dec.Image(); len(img) != Size || &img[0] != &buf[0] {
		t.Fatal("a decoded page does not keep the buffer it was decoded from")
	}
	enc, err := dec.Encode()
	if err != nil || &enc[0] != &buf[0] {
		t.Fatalf("Encode of a decoded page is not its image (err %v)", err)
	}
	app, err := dec.AppendEncode([]byte{0xAA})
	if err != nil || app[0] != 0xAA || !bytes.Equal(app[1:], buf) || &app[1] == &buf[0] {
		t.Fatalf("AppendEncode of a decoded page is not a copy of its image (err %v)", err)
	}
}

// Decode accepts only what Encode writes: a reserved header byte set under a
// valid checksum is refused.
func TestDecodeRejectsReservedBytes(t *testing.T) {
	for _, off := range []int{21, 28, 31} {
		p := &Page{ID: 4, LSN: 8, Type: TypeLeaf, Data: []byte("r")}
		buf, _ := p.Encode()
		buf[off] = 1
		binary.LittleEndian.PutUint32(buf[24:28], checksum(buf, len(p.Data)))
		if _, err := Decode(buf); !errors.Is(err, ErrBadMagic) {
			t.Fatalf("reserved byte %d set: err = %v, want ErrBadMagic", off, err)
		}
	}
}

// FuzzPageDecode: Decode never panics, and any buffer it accepts re-encodes
// byte for byte over the header and the declared payload — by a fresh
// encoding of the decoded fields, not by handing back the image.
func FuzzPageDecode(f *testing.F) {
	for _, p := range []*Page{
		{ID: 1, LSN: 2, Type: TypeLeaf, Data: []byte("seed")},
		{ID: 7, Type: TypeMeta},
		{ID: 1 << 40, LSN: 1 << 50, Type: TypeVersion, Data: bytes.Repeat([]byte{0xC3}, MaxData)},
	} {
		buf, err := p.Encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
	}
	f.Add(make([]byte, Size))
	f.Add([]byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, buf []byte) {
		pg, err := Decode(buf)
		if err != nil {
			return
		}
		fresh, err := (&Page{ID: pg.ID, LSN: pg.LSN, Type: pg.Type, Data: pg.Data}).Encode()
		if err != nil {
			t.Fatalf("accepted image does not re-encode: %v", err)
		}
		n := HeaderSize + len(pg.Data)
		if !bytes.Equal(fresh[:n], buf[:n]) {
			t.Fatalf("re-encoding differs over header and payload:\n got %x\nwant %x", fresh[:HeaderSize], buf[:HeaderSize])
		}
	})
}

func TestTypeString(t *testing.T) {
	cases := map[Type]string{
		TypeFree: "free", TypeMeta: "meta", TypeInternal: "internal",
		TypeLeaf: "leaf", TypeVersion: "version", Type(99): "type(99)",
	}
	for ty, want := range cases {
		if got := ty.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", ty, got, want)
		}
	}
}

// Property: Encode/Decode round-trips arbitrary pages.
func TestCodecRoundTripProperty(t *testing.T) {
	f := func(id uint64, lsn uint64, ty uint8, data []byte) bool {
		if len(data) > MaxData {
			data = data[:MaxData]
		}
		p := &Page{ID: ID(id), LSN: LSN(lsn), Type: Type(ty % 5), Data: data}
		buf, err := p.Encode()
		if err != nil {
			return false
		}
		got, err := Decode(buf)
		if err != nil {
			return false
		}
		return got.ID == p.ID && got.LSN == p.LSN && got.Type == p.Type &&
			bytes.Equal(got.Data, p.Data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: any single-bit flip in a nonempty image is detected.
func TestChecksumDetectsBitFlips(t *testing.T) {
	p := &Page{ID: 123, LSN: 456, Type: TypeLeaf, Data: []byte("sensitive row payload")}
	buf, _ := p.Encode()
	limit := HeaderSize + len(p.Data)
	for i := 0; i < limit; i++ {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), buf...)
			mut[i] ^= 1 << bit
			if _, err := Decode(mut); err == nil {
				t.Fatalf("bit flip at byte %d bit %d undetected", i, bit)
			}
		}
	}
}

func TestPartitioning(t *testing.T) {
	pt := Partitioning{PagesPerPartition: 100}
	if pt.PartitionOf(0) != 0 || pt.PartitionOf(99) != 0 {
		t.Fatal("pages 0-99 should be partition 0")
	}
	if pt.PartitionOf(100) != 1 || pt.PartitionOf(250) != 2 {
		t.Fatal("partition boundaries wrong")
	}
	lo, hi := pt.Range(2)
	if lo != 200 || hi != 300 {
		t.Fatalf("range(2) = [%d,%d)", lo, hi)
	}
}

func TestPartitioningZeroIsSinglePartition(t *testing.T) {
	pt := Partitioning{}
	if pt.PartitionOf(12345) != 0 {
		t.Fatal("zero partitioning should map everything to partition 0")
	}
}

// Property: every page falls inside the range its partition reports.
func TestPartitionRangeProperty(t *testing.T) {
	f := func(id uint32, per uint16) bool {
		if per == 0 {
			return true
		}
		pt := Partitioning{PagesPerPartition: uint64(per)}
		part := pt.PartitionOf(ID(id))
		lo, hi := pt.Range(part)
		return ID(id) >= lo && ID(id) < hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
