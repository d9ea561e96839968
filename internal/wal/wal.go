// Package wal defines the Socrates log: record and block formats, the
// binary codec, and the block builder the primary uses to assemble log
// blocks for the landing zone and the XLOG feed.
//
// The log is physiological: records describe page-level mutations (put or
// delete a cell on a page, install a whole page image) plus transaction
// control records. Redo is idempotent — a record applies to a page only if
// the record's LSN is newer than the page's LSN — which is what makes the
// GetPage@LSN protocol and multi-consumer log apply safe.
//
// Records are grouped into blocks, the unit of landing-zone writes and XLOG
// dissemination. Each block carries an out-of-band annotation listing the
// page-server partitions its records touch, so XLOG can filter dissemination
// per page server (§4.6: "the Primary includes sufficient out-of-band
// annotations for each log block").
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"

	"socrates/internal/page"
)

// Kind discriminates log record types.
type Kind uint8

// Record kinds.
const (
	KindNoop       Kind = iota // padding / testing
	KindTxnBegin               // transaction started
	KindTxnCommit              // transaction committed; Value = commit timestamp (8 bytes)
	KindTxnAbort               // transaction aborted
	KindPageImage              // full after-image of a page (structural ops)
	KindCellPut                // put Key→Value into a page's cell area
	KindCellDelete             // delete Key from a page's cell area
	KindCheckpoint             // checkpoint marker (bookkeeping)
)

func (k Kind) String() string {
	switch k {
	case KindNoop:
		return "noop"
	case KindTxnBegin:
		return "begin"
	case KindTxnCommit:
		return "commit"
	case KindTxnAbort:
		return "abort"
	case KindPageImage:
		return "page-image"
	case KindCellPut:
		return "cell-put"
	case KindCellDelete:
		return "cell-delete"
	case KindCheckpoint:
		return "checkpoint"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Record is one log record. Page, PageType, Key, and Value are meaningful
// only for the page-mutation kinds.
type Record struct {
	LSN      page.LSN
	Txn      uint64
	Kind     Kind
	Page     page.ID
	PageType page.Type
	Key      []byte
	Value    []byte

	// TraceID and SpanID are an in-memory-only observability annotation:
	// a commit record appended by a traced transaction carries its span
	// identity so the group commit can attribute the landing-zone write
	// back to the commit's span tree. They are NOT part of the log format
	// — the codec neither encodes nor recovers them (a replayed or pulled
	// record has no originating request to attribute to).
	TraceID uint64
	SpanID  uint64
}

// IsPageOp reports whether the record mutates a page.
func (r *Record) IsPageOp() bool {
	switch r.Kind {
	case KindPageImage, KindCellPut, KindCellDelete:
		return true
	}
	return false
}

// CommitTS extracts the commit timestamp from a KindTxnCommit record.
func (r *Record) CommitTS() uint64 {
	if r.Kind != KindTxnCommit || len(r.Value) < 8 {
		return 0
	}
	return binary.LittleEndian.Uint64(r.Value)
}

// NewCommit builds a commit record carrying the commit timestamp.
func NewCommit(txn, commitTS uint64) *Record {
	v := make([]byte, 8)
	binary.LittleEndian.PutUint64(v, commitTS)
	return &Record{Txn: txn, Kind: KindTxnCommit, Value: v}
}

// recordFixed is the encoded size of a record with an empty key and value:
// kind, LSN, txn, page, page type and the two length words.
const recordFixed = 1 + 8 + 8 + 8 + 1 + 4 + 4

// encodedSize reports the exact encoding size of the record.
func (r *Record) encodedSize() int {
	return recordFixed + len(r.Key) + len(r.Value)
}

// appendTo encodes the record onto buf.
func (r *Record) appendTo(buf []byte) []byte {
	buf = append(buf, byte(r.Kind))
	buf = binary.LittleEndian.AppendUint64(buf, r.LSN.Uint64())
	buf = binary.LittleEndian.AppendUint64(buf, r.Txn)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(r.Page))
	buf = append(buf, byte(r.PageType))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r.Key)))
	buf = append(buf, r.Key...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r.Value)))
	buf = append(buf, r.Value...)
	return buf
}

// decodeRecord parses one record from buf into r, returning the bytes
// consumed. Key and Value alias buf, capacity-capped so that appending to
// one cannot overwrite the bytes after it; an empty field stays nil.
func decodeRecord(r *Record, buf []byte) (int, error) {
	const fixed = recordFixed - 4 // up to and including the key length
	if len(buf) < fixed {
		return 0, errors.New("wal: truncated record header")
	}
	*r = Record{
		Kind:     Kind(buf[0]),
		LSN:      page.LSN(binary.LittleEndian.Uint64(buf[1:9])),
		Txn:      binary.LittleEndian.Uint64(buf[9:17]),
		Page:     page.ID(binary.LittleEndian.Uint64(buf[17:25])),
		PageType: page.Type(buf[25]),
	}
	klen := int(binary.LittleEndian.Uint32(buf[26:30]))
	pos := fixed
	if len(buf) < pos+klen+4 {
		return 0, errors.New("wal: truncated record key")
	}
	if klen > 0 {
		r.Key = buf[pos : pos+klen : pos+klen]
	}
	pos += klen
	vlen := int(binary.LittleEndian.Uint32(buf[pos : pos+4]))
	pos += 4
	if len(buf) < pos+vlen {
		return 0, errors.New("wal: truncated record value")
	}
	if vlen > 0 {
		r.Value = buf[pos : pos+vlen : pos+vlen]
	}
	return pos + vlen, nil
}

// Block is the unit of landing-zone writes and XLOG dissemination: a run of
// consecutive records [Start, End) plus the partition annotation.
type Block struct {
	Start      page.LSN           // LSN of the first record
	End        page.LSN           // LSN after the last record
	Partitions []page.PartitionID // partitions touched, sorted
	Records    []*Record
}

// Touches reports whether the block contains records for the partition.
func (b *Block) Touches(pt page.PartitionID) bool {
	for _, p := range b.Partitions {
		if p == pt {
			return true
		}
	}
	return false
}

const blockMagic = 0xB10C50C7

// ErrBadBlock reports a corrupt or truncated block image.
var ErrBadBlock = errors.New("wal: bad block")

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// blockFixed is the encoded size of a block header with no partitions:
// magic, start, end, nrec, npart, payload length and CRC.
const blockFixed = 4 + 8 + 8 + 4 + 2 + 4 + 4

// Encode serializes the block with a checksum, into one buffer of exactly
// EncodedSize bytes.
//
// Layout (little endian):
//
//	magic u32 | start u64 | end u64 | nrec u32 | npart u16 |
//	partitions u32 each | payloadLen u32 | crc u32 | records...
//
//socrates:hotpath every flushed block is encoded once, for the LZ and the XLOG feed; budget enforced by TestBlockCodecAllocs
func (b *Block) Encode() []byte {
	buf := make([]byte, 0, b.EncodedSize())
	buf = binary.LittleEndian.AppendUint32(buf, blockMagic)
	buf = binary.LittleEndian.AppendUint64(buf, b.Start.Uint64())
	buf = binary.LittleEndian.AppendUint64(buf, b.End.Uint64())
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(b.Records)))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(b.Partitions)))
	for _, p := range b.Partitions {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(p))
	}
	lenAt := len(buf)
	buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0) // payload length and CRC, filled in below
	for _, r := range b.Records {
		buf = r.appendTo(buf)
	}
	payload := buf[lenAt+8:]
	binary.LittleEndian.PutUint32(buf[lenAt:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[lenAt+4:], crc32.Checksum(payload, crcTable))
	return buf
}

// DecodeBlock parses a block image produced by Encode, returning the block
// and the total bytes consumed (blocks may be concatenated in a stream).
//
// The records alias buf (DESIGN §16.8): each Key and Value is a
// capacity-capped slice of the image, so the caller gives buf up and
// holding any record keeps the whole image alive. A block costs four
// allocations whatever its record count: the Block, its Partitions, one
// array of Records and the pointers into it.
//
//socrates:hotpath every hop of a log block decodes it (XLOG feed, page-server and secondary pulls, HADR ships); budget enforced by TestBlockCodecAllocs
func DecodeBlock(buf []byte) (*Block, int, error) {
	if len(buf) < blockFixed-8 {
		return nil, 0, fmt.Errorf("%w: short header", ErrBadBlock)
	}
	if binary.LittleEndian.Uint32(buf[0:4]) != blockMagic {
		return nil, 0, fmt.Errorf("%w: bad magic", ErrBadBlock)
	}
	nrec := int(binary.LittleEndian.Uint32(buf[20:24]))
	npart := int(binary.LittleEndian.Uint16(buf[24:26]))
	partsAt := blockFixed - 8 // the partition list follows nrec and npart
	pos := partsAt + 4*npart
	if len(buf) < pos+8 {
		return nil, 0, fmt.Errorf("%w: short partition list", ErrBadBlock)
	}
	plen := int(binary.LittleEndian.Uint32(buf[pos : pos+4]))
	wantCRC := binary.LittleEndian.Uint32(buf[pos+4 : pos+8])
	pos += 8
	if len(buf) < pos+plen {
		return nil, 0, fmt.Errorf("%w: short payload", ErrBadBlock)
	}
	// The CRC covers the payload, not nrec: bound the count by what the
	// payload can hold before sizing anything by it.
	if nrec > plen/recordFixed {
		return nil, 0, fmt.Errorf("%w: %d records cannot fit the payload", ErrBadBlock, nrec)
	}
	payload := buf[pos : pos+plen]
	if crc32.Checksum(payload, crcTable) != wantCRC {
		return nil, 0, fmt.Errorf("%w: checksum mismatch", ErrBadBlock)
	}
	b := &Block{
		Start: page.LSN(binary.LittleEndian.Uint64(buf[4:12])),
		End:   page.LSN(binary.LittleEndian.Uint64(buf[12:20])),
	}
	if npart > 0 {
		b.Partitions = make([]page.PartitionID, npart)
		for i := range b.Partitions {
			b.Partitions[i] = page.PartitionID(binary.LittleEndian.Uint32(buf[partsAt+4*i:]))
		}
	}
	rest := payload
	if nrec > 0 {
		recs := make([]Record, nrec)
		b.Records = make([]*Record, nrec)
		for i := range recs {
			n, err := decodeRecord(&recs[i], rest)
			if err != nil {
				return nil, 0, fmt.Errorf("%w: record %d: %v", ErrBadBlock, i, err)
			}
			b.Records[i] = &recs[i]
			rest = rest[n:]
		}
	}
	if len(rest) != 0 {
		return nil, 0, fmt.Errorf("%w: %d trailing payload bytes", ErrBadBlock, len(rest))
	}
	return b, pos + plen, nil
}

// EncodedSize reports the exact size Encode will produce.
func (b *Block) EncodedSize() int {
	n := blockFixed + 4*len(b.Partitions)
	for _, r := range b.Records {
		n += r.encodedSize()
	}
	return n
}

// ComputePartitions returns the sorted set of partitions the records touch
// under the given partitioning. A block touches few partitions, so the set
// is one sorted slice grown by insertion.
func ComputePartitions(records []*Record, pt page.Partitioning) []page.PartitionID {
	var out []page.PartitionID
	for _, r := range records {
		if !r.IsPageOp() {
			continue
		}
		p := pt.PartitionOf(r.Page)
		if i, found := slices.BinarySearch(out, p); !found {
			out = slices.Insert(out, i, p)
		}
	}
	return out
}

// Builder accumulates records into a block. The primary's log writer keeps
// one Builder per in-flight block and flushes on size or commit boundaries.
type Builder struct {
	pt      page.Partitioning
	records []*Record
	next    page.LSN
	start   page.LSN
}

// NewBuilder creates a builder that assigns LSNs starting at next and
// annotates partitions under pt.
func NewBuilder(next page.LSN, pt page.Partitioning) *Builder {
	return &Builder{pt: pt, next: next, start: next}
}

// Append assigns the next LSN to r and adds it to the pending block.
func (bld *Builder) Append(r *Record) page.LSN {
	r.LSN = bld.next
	bld.next = bld.next.Next()
	bld.records = append(bld.records, r)
	return r.LSN
}

// Flush cuts a block containing all pending records and resets the builder
// for the following block. Flushing with no pending records returns nil.
func (bld *Builder) Flush() *Block {
	if len(bld.records) == 0 {
		return nil
	}
	b := &Block{
		Start:      bld.start,
		End:        bld.next,
		Partitions: ComputePartitions(bld.records, bld.pt),
		Records:    bld.records,
	}
	bld.records = nil
	bld.start = bld.next
	return b
}
