package xlog

import (
	"sync"

	"socrates/internal/page"
	"socrates/internal/simdisk"
	"socrates/internal/wal"
	"socrates/internal/xstore"
)

// lt is the long-term log archive: an append-only XStore blob of encoded
// blocks plus an in-memory index rebuilt by scanning on recovery. The LT is
// the tier of last resort — a block is guaranteed to be found here (§4.3) —
// and the source for PITR log ranges.
type lt struct {
	store *xstore.Store
	blob  string

	mu    sync.Mutex
	index map[page.LSN]ltExtent
	size  int64
	last  page.LSN // end LSN of the last archived block
	maxTS uint64   // highest commit timestamp archived
}

type ltExtent struct {
	off    int64
	length int64
}

// append archives the batch (already concatenated into buf, in LSN order).
func (l *lt) append(batch []*wal.Block, buf []byte) error {
	if err := l.store.Append(l.blob, buf); err != nil {
		return err
	}
	l.mu.Lock()
	if l.index == nil {
		l.index = make(map[page.LSN]ltExtent)
	}
	off := l.size
	for _, b := range batch {
		n := int64(b.EncodedSize())
		l.index[b.Start] = ltExtent{off: off, length: n}
		off += n
		l.last = page.MaxLSN(l.last, b.End)
		l.noteCommits(b)
	}
	l.size = off
	l.mu.Unlock()
	return nil
}

// read fetches one block by start LSN (nil if not archived), with the
// extent it was decoded from; the block's records alias that extent.
func (l *lt) read(start page.LSN) (*wal.Block, []byte, error) {
	l.mu.Lock()
	ext, ok := l.index[start]
	l.mu.Unlock()
	if !ok {
		return nil, nil, nil
	}
	buf, err := l.store.ReadAt(l.blob, ext.off, ext.length)
	if err != nil {
		return nil, nil, err
	}
	b, n, err := wal.DecodeBlock(buf)
	if err != nil {
		return nil, nil, err
	}
	return b, buf[:n], nil
}

// recover rebuilds the index by scanning the archive blob. The XStore reads
// happen before l.mu is taken so a slow (simulated-latency) fetch never
// stalls concurrent readers of the index.
func (l *lt) recover() error {
	var data []byte
	if l.store.Exists(l.blob) {
		var err error
		data, err = l.store.Get(l.blob)
		if err != nil {
			return err
		}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.index = make(map[page.LSN]ltExtent)
	l.size, l.last = 0, 0
	off := int64(0)
	rest := data
	for len(rest) > 0 {
		b, n, err := wal.DecodeBlock(rest)
		if err != nil {
			break // torn tail: everything before it is indexed
		}
		l.index[b.Start] = ltExtent{off: off, length: int64(n)}
		l.last = page.MaxLSN(l.last, b.End)
		l.noteCommits(b)
		off += int64(n)
		rest = rest[n:]
	}
	l.size = off
	return nil
}

// noteCommits tracks the highest archived commit timestamp. Caller holds
// l.mu.
func (l *lt) noteCommits(b *wal.Block) {
	for _, rec := range b.Records {
		if rec.Kind == wal.KindTxnCommit {
			if ts := rec.CommitTS(); ts > l.maxTS {
				l.maxTS = ts
			}
		}
	}
}

// maxCommitTS reports the highest archived commit timestamp.
func (l *lt) maxCommitTS() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.maxTS
}

// end reports the archived end LSN.
func (l *lt) end() page.LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.last
}

// blockCache is the fixed-size local SSD cache of recently destaged blocks
// — the middle tier between the sequence map and the LZ/LT (§4.3). It is a
// pure cache: no recovery, oldest entries evicted as the ring refills.
type blockCache struct {
	dev    *simdisk.Device
	budget int64

	mu    sync.Mutex
	index map[page.LSN]cacheExtent
	order []page.LSN // insertion (LSN) order for eviction
	head  int64
	used  int64
}

type cacheExtent struct {
	off    int64
	length int64
}

func newBlockCache(dev *simdisk.Device, budget int64) *blockCache {
	return &blockCache{dev: dev, budget: budget, index: make(map[page.LSN]cacheExtent)}
}

// put stores an encoded block, evicting the oldest entries to fit.
func (c *blockCache) put(start page.LSN, enc []byte) {
	n := int64(len(enc))
	if n > c.budget {
		return // larger than the whole cache: skip
	}
	c.mu.Lock()
	for c.used+n > c.budget && len(c.order) > 0 {
		victim := c.order[0]
		c.order = c.order[1:]
		ext := c.index[victim]
		delete(c.index, victim)
		c.used -= ext.length
	}
	if c.head+n > c.budget*2 { // ring over a bounded file
		c.head = 0
	}
	off := c.head
	c.head += n
	c.mu.Unlock()

	if err := c.dev.WriteAt(enc, off); err != nil {
		return
	}

	c.mu.Lock()
	// Invalidate any resident entry overwritten by this write. Extents are
	// carved from the ring in insertion order, so the overwritten ones are
	// the oldest: a prefix of order.
	for len(c.order) > 0 {
		ext := c.index[c.order[0]]
		if ext.off >= off+n || off >= ext.off+ext.length {
			break
		}
		delete(c.index, c.order[0])
		c.order = c.order[1:]
		c.used -= ext.length
	}
	c.index[start] = cacheExtent{off: off, length: n}
	c.order = append(c.order, start)
	c.used += n
	c.mu.Unlock()
}

// get fetches an encoded block if cached.
func (c *blockCache) get(start page.LSN) ([]byte, bool) {
	c.mu.Lock()
	ext, ok := c.index[start]
	c.mu.Unlock()
	if !ok {
		return nil, false
	}
	buf := make([]byte, ext.length)
	if err := c.dev.ReadAt(buf, ext.off); err != nil {
		return nil, false
	}
	return buf, true
}
