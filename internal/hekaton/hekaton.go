// Package hekaton is a miniature tribute to SQL Server's in-memory storage
// engine: a hash table whose contents survive process restarts. Socrates
// builds RBPEX (the resilient buffer pool extension, §3.3) as "a table in
// our in-memory storage engine, Hekaton ... Hekaton recovers RBPEX after a
// failure — just like any other Hekaton table". This package provides
// exactly that recoverable-table primitive.
//
// Durability is a write-ahead operation log on a local SSD device. Open
// replays the log (stopping cleanly at a torn tail, which a crash can
// leave), and Checkpoint compacts the log by writing a full snapshot
// followed by fresh appends. All reads are served from memory, so read
// latency is main-memory latency — the property RBPEX relies on ("read I/O
// to RBPEX is as fast as direct I/O to the local SSD").
package hekaton

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"

	"socrates/internal/simdisk"
)

// Operation tags in the durable log.
const (
	opPut    = 1
	opDelete = 2
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// errCorrupt reports a log that is damaged beyond the usual torn tail.
var errCorrupt = errors.New("hekaton: corrupt log")

// Table is a durable in-memory key/value table. All methods are safe for
// concurrent use; writes are durable when the method returns.
type Table struct {
	mu     sync.RWMutex
	dev    *simdisk.Device
	rows   map[string][]byte
	logEnd int64 // append offset in dev
	// scratch and touched are Apply's working space, reused under mu: the
	// encoded batch (the device copies what it is given) and the keys the
	// batch has changed so far.
	scratch []byte
	touched map[string]bool
}

// header layout at offset 0:
//
//	magic u32 | snapshotLen u64
//
// The snapshot region (possibly empty) holds opPut entries; the append
// region follows and holds the post-checkpoint operation log.
const headerSize = 12

const tableMagic = 0x48454B31 // "HEK1"

// Open loads (or initializes) a table backed by dev. After a crash, replay
// stops at the first torn entry: everything durable before it is recovered.
func Open(dev *simdisk.Device) (*Table, error) {
	t := &Table{dev: dev, rows: make(map[string][]byte), touched: make(map[string]bool)}
	size := dev.Size()
	if size == 0 {
		// Fresh device: write an empty header.
		if err := t.writeHeader(0); err != nil {
			return nil, err
		}
		t.logEnd = headerSize
		return t, nil
	}
	head := make([]byte, headerSize)
	if err := dev.ReadAt(head, 0); err != nil {
		return nil, fmt.Errorf("hekaton: reading header: %w", err)
	}
	if binary.LittleEndian.Uint32(head[0:4]) != tableMagic {
		return nil, fmt.Errorf("%w: bad table magic", errCorrupt)
	}
	snapLen := int64(binary.LittleEndian.Uint64(head[4:12]))
	if headerSize+snapLen > size {
		return nil, fmt.Errorf("%w: snapshot length %d exceeds device", errCorrupt, snapLen)
	}
	body := make([]byte, size-headerSize)
	if err := dev.ReadAt(body, headerSize); err != nil {
		return nil, fmt.Errorf("hekaton: reading log: %w", err)
	}
	// Snapshot region must be fully intact.
	pos := int64(0)
	for pos < snapLen {
		n, op, key, val, err := decodeEntry(body[pos:])
		if err != nil {
			return nil, fmt.Errorf("%w: snapshot entry at %d: %v", errCorrupt, pos, err)
		}
		if op != opPut {
			return nil, fmt.Errorf("%w: non-put op %d in snapshot", errCorrupt, op)
		}
		t.rows[string(key)] = val
		pos += int64(n)
	}
	// Append region: replay until a torn/corrupt entry, then stop (crash
	// semantics — the torn suffix was never acknowledged as durable).
	for pos < int64(len(body)) {
		n, op, key, val, err := decodeEntry(body[pos:])
		if err != nil {
			break
		}
		switch op {
		case opPut:
			t.rows[string(key)] = val
		case opDelete:
			delete(t.rows, string(key))
		default:
			// Unknown op: treat as tear.
		}
		if op != opPut && op != opDelete {
			break
		}
		pos += int64(n)
	}
	t.logEnd = headerSize + pos
	return t, nil
}

func (t *Table) writeHeader(snapLen int64) error {
	head := make([]byte, headerSize)
	binary.LittleEndian.PutUint32(head[0:4], tableMagic)
	binary.LittleEndian.PutUint64(head[4:12], uint64(snapLen))
	return t.dev.WriteAt(head, 0)
}

// entry layout: op u8 | klen u16 | vlen u32 | key | val | crc u32
func appendEntry(buf []byte, op byte, key string, val []byte) []byte {
	start := len(buf)
	buf = append(buf, op)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(key)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(val)))
	buf = append(buf, key...)
	buf = append(buf, val...)
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf[start:], crcTable))
}

func decodeEntry(buf []byte) (n int, op byte, key, val []byte, err error) {
	if len(buf) < 11 {
		return 0, 0, nil, nil, errors.New("short entry")
	}
	op = buf[0]
	klen := int(binary.LittleEndian.Uint16(buf[1:3]))
	vlen := int(binary.LittleEndian.Uint32(buf[3:7]))
	total := 7 + klen + vlen + 4
	if len(buf) < total {
		return 0, 0, nil, nil, errors.New("torn entry")
	}
	want := binary.LittleEndian.Uint32(buf[total-4 : total])
	if crc32.Checksum(buf[:total-4], crcTable) != want {
		return 0, 0, nil, nil, errors.New("entry checksum mismatch")
	}
	key = append([]byte(nil), buf[7:7+klen]...)
	if vlen > 0 {
		val = append([]byte(nil), buf[7+klen:7+klen+vlen]...)
	}
	return total, op, key, val, nil
}

// Op is one change to the table: store Key→Val, or remove Key.
type Op struct {
	Key    string
	Val    []byte
	Delete bool
}

// Apply makes the changes durable with one append to the log — one device
// write however many there are — and then applies them to the table, in
// order. Every change is its own checksummed log entry, so a crash that
// tears the append recovers some prefix of the batch. A Delete of a key
// that is absent at that point of the batch logs nothing.
//
//socrates:lock-ok the durable log append is intentionally serialized under the table lock: per-key entry order in the log must match the in-memory apply order
func (t *Table) Apply(ops []Op) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	// touched answers "is the key there at this point of the batch" for the
	// keys the batch has changed so far.
	clear(t.touched)
	buf := t.scratch[:0]
	for _, op := range ops {
		if op.Delete {
			there, changed := t.touched[op.Key]
			if !changed {
				_, there = t.rows[op.Key]
			}
			if !there {
				continue
			}
			buf = appendEntry(buf, opDelete, op.Key, nil)
		} else {
			buf = appendEntry(buf, opPut, op.Key, op.Val)
		}
		if len(ops) > 1 {
			t.touched[op.Key] = !op.Delete
		}
	}
	t.scratch = buf
	if len(buf) == 0 {
		return nil
	}
	if err := t.dev.WriteAt(buf, t.logEnd); err != nil {
		return err
	}
	t.logEnd += int64(len(buf))
	for _, op := range ops {
		if op.Delete {
			delete(t.rows, op.Key)
		} else {
			t.rows[op.Key] = append([]byte(nil), op.Val...)
		}
	}
	return nil
}

// Range calls fn for every row until fn returns false. The iteration order
// is unspecified. fn must not call back into the table.
func (t *Table) Range(fn func(key string, val []byte) bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for k, v := range t.rows {
		if !fn(k, v) {
			return
		}
	}
}

// Checkpoint compacts the durable log: the current contents become the
// snapshot region and the append log restarts empty. Bounded log growth is
// what keeps RBPEX recovery fast.
//
//socrates:lock-ok compaction must exclude writers for the whole snapshot+header sequence; a concurrent append would land inside the region being overwritten
func (t *Table) Checkpoint() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	var snap []byte
	for k, v := range t.rows {
		snap = appendEntry(snap, opPut, k, v)
	}
	// Write snapshot first, then the header that activates it. If we crash
	// between the two writes, the old header still describes a consistent
	// (pre-checkpoint) prefix only if the snapshot didn't overwrite it —
	// so write the snapshot after the header location but flip the header
	// last. A torn snapshot write is detected by entry checksums.
	if err := t.dev.WriteAt(snap, headerSize); err != nil {
		return err
	}
	t.dev.Truncate(headerSize + int64(len(snap)))
	if err := t.writeHeader(int64(len(snap))); err != nil {
		return err
	}
	t.logEnd = headerSize + int64(len(snap))
	return nil
}
