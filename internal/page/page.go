// Package page defines the on-disk page format shared by every tier of the
// Socrates stack: compute-node buffer pools, RBPEX caches, page servers, and
// the checkpoint files in XStore all traffic in these 8 KiB pages.
//
// A page carries its own LSN (the LSN of the last log record applied to it),
// which is the linchpin of the GetPage@LSN protocol (§4.4): redo is
// idempotent because a record is applied only when record.LSN > page.LSN,
// and a reader can demand a page "at least as new as" a given LSN.
//
// The package also defines the range partitioning that assigns pages to
// page servers (§4.6): partition k owns pages [k*PagesPerPartition,
// (k+1)*PagesPerPartition).
package page

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Size is the fixed page size in bytes, matching SQL Server's 8 KiB pages.
const Size = 8192

// HeaderSize is the number of bytes of header preceding the payload.
const HeaderSize = 32

// MaxData is the payload capacity of a page.
const MaxData = Size - HeaderSize

const magic = 0x50C7A7E5 // "SOCRATES"

// ID identifies a page within a database. IDs are dense and allocated by
// the primary's space manager.
type ID uint64

// InvalidID is the zero, never-allocated page ID.
const InvalidID ID = 0

// LSN is a log sequence number. The primary allocates LSNs from a single
// monotonic space; a page's LSN records the last change applied to it.
//
// Every tier of the stack orders itself by LSN watermarks (hardened,
// promoted, destaged, applied), so ordering and arithmetic on LSNs go
// through the methods below rather than raw operators: the lsnlint pass in
// internal/analysis flags raw `lsn+1` / `a < b` expressions outside
// approved helpers, which keeps the monotonicity invariant auditable in
// one place.
type LSN uint64

// Uint64 returns the LSN as a raw integer for serialization.
func (l LSN) Uint64() uint64 { return uint64(l) }

// Next returns the LSN immediately after l (the next record slot).
func (l LSN) Next() LSN { return l + 1 }

// Prev returns the LSN immediately before l; the zero LSN has no
// predecessor and maps to itself.
func (l LSN) Prev() LSN {
	if l == 0 {
		return 0
	}
	return l - 1
}

// Before reports l < o.
func (l LSN) Before(o LSN) bool { return l < o }

// AtMost reports l <= o.
func (l LSN) AtMost(o LSN) bool { return l <= o }

// After reports l > o.
func (l LSN) After(o LSN) bool { return l > o }

// AtLeast reports l >= o.
func (l LSN) AtLeast(o LSN) bool { return l >= o }

// Distance reports how many slots separate from (inclusive) and l
// (exclusive); it is 0 when l precedes from.
func (l LSN) Distance(from LSN) uint64 {
	if l < from {
		return 0
	}
	return uint64(l - from)
}

// MaxLSN returns the later of a and b.
func MaxLSN(a, b LSN) LSN {
	if a.Before(b) {
		return b
	}
	return a
}

// Type tags what a page stores.
type Type uint8

// Page types.
const (
	TypeFree     Type = iota // unallocated
	TypeMeta                 // database/system catalog page
	TypeInternal             // B-tree interior node
	TypeLeaf                 // B-tree leaf node
	TypeVersion              // version-store page
)

func (t Type) String() string {
	switch t {
	case TypeFree:
		return "free"
	case TypeMeta:
		return "meta"
	case TypeInternal:
		return "internal"
	case TypeLeaf:
		return "leaf"
	case TypeVersion:
		return "version"
	default:
		return fmt.Sprintf("type(%d)", uint8(t))
	}
}

// ErrChecksum reports a torn or corrupted page image.
var ErrChecksum = errors.New("page: checksum mismatch")

// ErrBadMagic reports a buffer that is not a page image.
var ErrBadMagic = errors.New("page: bad magic")

// ErrTooLarge reports a payload exceeding MaxData.
var ErrTooLarge = errors.New("page: payload too large")

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// checksum covers the whole header (except the checksum field itself) plus
// the first n payload bytes, so any bit flip in a page image is detected.
func checksum(buf []byte, n int) uint32 {
	sum := crc32.Checksum(buf[0:24], crcTable)
	sum = crc32.Update(sum, crcTable, buf[28:32])
	return crc32.Update(sum, crcTable, buf[HeaderSize:HeaderSize+n])
}

// Page is the in-memory representation of one database page.
//
// Ownership (DESIGN §16): a page is immutable from the moment it is handed
// to a Write/Put or returned by a Read/Get. Caches and page files store and
// return the same pointer, so any number of readers may hold a page while a
// writer installs its successor; whoever changes a page builds a new Page
// around a new payload. Only a page its creator has not yet published may
// be filled in field by field.
//
// A page Decode returned also keeps the verified image it was read from
// (DESIGN §16.9), and every encode of it writes that image as is: a page
// read off a device or the wire is served, spilled and checkpointed without
// being encoded again. A page built in memory has none and is encoded.
type Page struct {
	ID   ID
	LSN  LSN
	Type Type
	Data []byte // payload, at most MaxData bytes

	image *[Size]byte // the image Decode verified; nil for a page built in memory
}

// New returns an empty page of the given type.
func New(id ID, t Type) *Page {
	return &Page{ID: id, Type: t}
}

// Clone returns a deep copy, for the rare caller that wants a page it may
// edit; the page path itself never clones. The copy has no image: edited,
// it encodes as what it then holds, never as its source.
func (p *Page) Clone() *Page {
	return &Page{ID: p.ID, LSN: p.LSN, Type: p.Type, Data: append([]byte(nil), p.Data...)}
}

// Encode returns the page's Size-byte image with checksum: the image Decode
// read the page from, as is — shared, so the caller must not write it —
// or, for a page built in memory, a fresh encoding.
//
// Layout (little endian):
//
//	[0:4)   magic
//	[4:12)  page ID
//	[12:20) page LSN
//	[20:21) type
//	[21:22) reserved, zero
//	[22:24) payload length
//	[24:28) checksum (crc32c over bytes [0:24) with this field zeroed, plus payload)
//	[28:32) reserved, zero
//	[32:..) payload
func (p *Page) Encode() ([]byte, error) {
	if p.image != nil {
		return p.image[:], nil
	}
	return p.AppendEncode(make([]byte, 0, Size))
}

// Image returns the verified image Decode read the page from, or nil for a
// page built in memory. Nobody writes it.
func (p *Page) Image() []byte {
	if p.image == nil {
		return nil
	}
	return p.image[:]
}

// zeroImage is the blank page image AppendEncode extends dst with before
// encoding in place (appending from a package-level array allocates
// nothing when dst has capacity).
var zeroImage [Size]byte

// AppendEncode appends the page's Size-byte image to dst and returns the
// extended slice — the form of Encode for callers assembling payloads (a
// checkpoint batch, an RBPEX spill) into one buffer of their own. A page
// with an image appends a copy of it; one built in memory is encoded in
// place.
//
//socrates:hotpath one call per page served that redo built in memory; TestGetPageAllocs (Handler)
func (p *Page) AppendEncode(dst []byte) ([]byte, error) {
	if p.image != nil {
		return append(dst, p.image[:]...), nil
	}
	if len(p.Data) > MaxData {
		return dst, fmt.Errorf("%w: %d bytes on page %d", ErrTooLarge, len(p.Data), p.ID)
	}
	off := len(dst)
	dst = append(dst, zeroImage[:]...)
	buf := dst[off : off+Size]
	binary.LittleEndian.PutUint32(buf[0:4], magic)
	binary.LittleEndian.PutUint64(buf[4:12], uint64(p.ID))
	binary.LittleEndian.PutUint64(buf[12:20], uint64(p.LSN))
	buf[20] = byte(p.Type)
	binary.LittleEndian.PutUint16(buf[22:24], uint16(len(p.Data)))
	copy(buf[HeaderSize:], p.Data)
	binary.LittleEndian.PutUint32(buf[24:28], checksum(buf, len(p.Data)))
	return dst, nil
}

// Decode parses and verifies a page image produced by Encode. The page's
// payload aliases buf, and the page keeps buf as its image — one buffer
// from the device or the wire to the reader, and on to the next device or
// wire — so the caller gives buf up: it must not be written again.
//
// Decode accepts only the images Encode writes: with the reserved header
// bytes zero, a page it returns re-encodes to buf's header and payload.
func Decode(buf []byte) (*Page, error) {
	if len(buf) != Size {
		return nil, fmt.Errorf("page: image is %d bytes, want %d", len(buf), Size)
	}
	if binary.LittleEndian.Uint32(buf[0:4]) != magic {
		return nil, ErrBadMagic
	}
	n := int(binary.LittleEndian.Uint16(buf[22:24]))
	if n > MaxData {
		return nil, fmt.Errorf("%w: declared payload %d", ErrTooLarge, n)
	}
	want := binary.LittleEndian.Uint32(buf[24:28])
	if checksum(buf, n) != want {
		return nil, fmt.Errorf("%w on page %d", ErrChecksum,
			binary.LittleEndian.Uint64(buf[4:12]))
	}
	if buf[21] != 0 || binary.LittleEndian.Uint32(buf[28:32]) != 0 {
		return nil, fmt.Errorf("%w: reserved header bytes set", ErrBadMagic)
	}
	p := &Page{
		ID:    ID(binary.LittleEndian.Uint64(buf[4:12])),
		LSN:   LSN(binary.LittleEndian.Uint64(buf[12:20])),
		Type:  Type(buf[20]),
		Data:  buf[HeaderSize : HeaderSize+n : HeaderSize+n],
		image: (*[Size]byte)(buf),
	}
	return p, nil
}

// PartitionID identifies a page-server partition.
type PartitionID uint32

// Partitioning maps pages to page-server partitions by dense ranges.
// The paper sizes partitions at 128 GB (§6); experiments here scale the
// page count down while preserving the range-partitioned structure.
type Partitioning struct {
	// PagesPerPartition is the number of pages each partition owns.
	PagesPerPartition uint64
}

// PartitionOf reports which partition owns the page.
func (pt Partitioning) PartitionOf(id ID) PartitionID {
	if pt.PagesPerPartition == 0 {
		return 0
	}
	return PartitionID(uint64(id) / pt.PagesPerPartition)
}

// Range reports the page range [lo, hi) owned by a partition.
func (pt Partitioning) Range(part PartitionID) (lo, hi ID) {
	lo = ID(uint64(part) * pt.PagesPerPartition)
	hi = lo + ID(pt.PagesPerPartition)
	return lo, hi
}
