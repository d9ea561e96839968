package engine

import (
	"sync/atomic"
	"testing"

	"socrates/internal/fcb"
	"socrates/internal/obs"
	"socrates/internal/page"
	"socrates/internal/rbpex"
	"socrates/internal/simdisk"
)

// cachedFile is a compute node's page file without the network: a sparse
// RBPEX — memory tier over SSD tier — in front of a MemFile that plays the
// page servers.
type cachedFile struct {
	cache  *rbpex.Cache
	remote *fcb.MemFile
	// queued, if set, is called after every put that queued a page for the
	// SSD tier: one that pushed a page out of the memory tier, as the
	// cache's writebehind.queued counter tells.
	queued      func()
	queuedPages *obs.Counter
}

func (f *cachedFile) Read(id page.ID) (*page.Page, error) {
	if pg, ok := f.cache.Get(id); ok {
		return pg, nil
	}
	pg, err := f.remote.Read(id)
	if err != nil {
		return nil, err
	}
	err = f.put(func() error { _, err := f.cache.PutFetched(pg); return err })
	return pg, err
}

func (f *cachedFile) Write(pg *page.Page) error {
	if err := f.remote.Write(pg); err != nil {
		return err
	}
	return f.put(func() error { return f.cache.Put(pg) })
}

func (f *cachedFile) put(install func() error) error {
	before := f.queuedPages.Value()
	err := install()
	if f.queued != nil && f.queuedPages.Value() != before {
		f.queued()
	}
	return err
}

// TestCommitLatchCoversNoDeviceWrite: a commit whose page writes push pages
// out of the memory tier — under commitMu, the one latch every commit on the
// primary shares — hands them to the write-behind queue and goes on. The
// cache devices take no write at all while the test runs the commit, so a
// commit that waited for one, under the latch or before it, never returns.
func TestCommitLatchCoversNoDeviceWrite(t *testing.T) {
	ssd, meta := simdisk.New(simdisk.Instant), simdisk.New(simdisk.Instant)
	var e *Engine
	var underLatch atomic.Int64 // puts that evicted from the memory tier with the commit latch held
	cache, err := rbpex.Open(rbpex.Config{MemPages: 6, SSDPages: 256, SSD: ssd, Meta: meta})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	cache.Instrument(obs.Plane{Metrics: reg}, "rbpex", nil)
	wb := func(name string) uint64 { return reg.Counter("rbpex.writebehind." + name).Value() }
	file := &cachedFile{cache: cache, remote: fcb.NewMemFile(), queuedPages: reg.Counter("rbpex.writebehind.queued"), queued: func() {
		if e == nil {
			return
		}
		if e.commitMu.TryLock() {
			e.commitMu.Unlock()
		} else {
			underLatch.Add(1)
		}
	}}
	e, err = Create(Config{Pages: file, Log: NewMemPipeline()})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	var keys [][]byte
	for i := 0; i < 600; i++ {
		keys = append(keys, warmKey(i))
	}
	pad := string(make([]byte, 300))
	for round := 0; round < 2; round++ { // the second round starts the version store
		if err := commitRows(t, e, keys, pad); err != nil {
			t.Fatal(err)
		}
	}
	cache.Sync()
	queuedBefore, writtenBefore, blockedBefore := wb("queued"), wb("written"), wb("blocked_puts")
	underLatch.Store(0)

	releaseSSD, releaseMeta := ssd.HoldWrites(), meta.HoldWrites()
	defer releaseMeta()
	defer releaseSSD()
	// Two rows on leaves far apart: their pages, the version store's and the
	// path to them do not fit the memory tier together.
	if err := commitRows(t, e, [][]byte{keys[10], keys[500]}, "held"); err != nil {
		t.Fatal(err)
	}
	if wb("queued") == queuedBefore || underLatch.Load() == 0 {
		t.Fatalf("the commit queued %d pages, %d of them evicted under the latch; the test needs a commit whose writes evict",
			wb("queued")-queuedBefore, underLatch.Load())
	}
	if wb("written") != writtenBefore || wb("blocked_puts") != blockedBefore {
		t.Fatalf("write-behind during the commit: %d written, %d blocked puts (before: %d, %d); the devices were held and the backlog had room",
			wb("written"), wb("blocked_puts"), writtenBefore, blockedBefore)
	}
	if !e.commitMu.TryLock() {
		t.Fatal("the commit latch is still held after Commit returned")
	}
	e.commitMu.Unlock()
	rowIs(t, e, keys[10], "held")
	rowIs(t, e, keys[500], "held")
}
