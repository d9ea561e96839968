package hadr

import (
	"sync"
	"time"

	"socrates/internal/fcb"
	"socrates/internal/page"
	"socrates/internal/simdisk"
)

// bufferedFile is an HADR node's page store: the full database cached in
// memory (the reason "HADR has high performance: every compute node has a
// full, local copy", §2) over a local-SSD shadow written back lazily.
// Durability comes from the replicated log; the disk copy exists for
// restart and for the O(size-of-data) seeding path.
type bufferedFile struct {
	disk *fcb.DiskFile

	mu    sync.Mutex
	mem   map[page.ID]*page.Page
	dirty map[page.ID]struct{}

	// flushMu serializes write-back passes: a caller of flushOnce or Range
	// must not return while the ticker's pass still holds pages it has
	// taken off the dirty set but not yet written.
	flushMu sync.Mutex

	done chan struct{}
	wg   sync.WaitGroup
}

func newBufferedFile(dev *simdisk.Device) (*bufferedFile, error) {
	disk, err := fcb.OpenDisk(dev)
	if err != nil {
		return nil, err
	}
	f := &bufferedFile{
		disk:  disk,
		mem:   make(map[page.ID]*page.Page),
		dirty: make(map[page.ID]struct{}),
		done:  make(chan struct{}),
	}
	f.wg.Add(1)
	go f.flushLoop()
	return f, nil
}

// Read serves from memory (the full copy), falling back to disk once. The
// page is the stored one, shared and immutable (DESIGN §16).
func (f *bufferedFile) Read(id page.ID) (*page.Page, error) {
	f.mu.Lock()
	pg, ok := f.mem[id]
	f.mu.Unlock()
	if ok {
		return pg, nil
	}
	pg, err := f.disk.Read(id)
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	f.mem[id] = pg
	f.mu.Unlock()
	return pg, nil
}

// Write takes ownership of the page, installs it in memory and schedules
// the disk write-back.
func (f *bufferedFile) Write(pg *page.Page) error {
	f.mu.Lock()
	f.mem[pg.ID] = pg
	f.dirty[pg.ID] = struct{}{}
	f.mu.Unlock()
	return nil
}

func (f *bufferedFile) flushLoop() {
	defer f.wg.Done()
	ticker := time.NewTicker(5 * time.Millisecond)
	defer ticker.Stop()
	for {
		//socrates:wait-ok write-back cadence tick, not a stall
		select {
		case <-f.done:
			//socrates:ignore-err the final drain is best-effort; durability comes from the replicated log, the disk shadow only speeds restart
			_ = f.flushOnce()
			return
		case <-ticker.C:
			//socrates:ignore-err a failed write-back re-marks the page dirty inside flushOnce; the next tick retries
			_ = f.flushOnce()
		}
	}
}

// flushOnce writes the dirty set through to disk. Pages whose write fails
// are re-marked dirty so the next pass retries them, and the first error is
// returned.
func (f *bufferedFile) flushOnce() error {
	f.flushMu.Lock()
	defer f.flushMu.Unlock()
	f.mu.Lock()
	batch := make([]*page.Page, 0, len(f.dirty))
	for id := range f.dirty {
		if pg, ok := f.mem[id]; ok {
			batch = append(batch, pg)
		}
		delete(f.dirty, id)
	}
	f.mu.Unlock()
	var firstErr error
	for _, pg := range batch {
		if err := f.disk.Write(pg); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			f.mu.Lock()
			f.dirty[pg.ID] = struct{}{}
			f.mu.Unlock()
		}
	}
	return firstErr
}

// forEach iterates the durable on-disk copy (after draining dirty pages) —
// the O(size-of-data) path used by replica seeding.
func (f *bufferedFile) forEach(fn func(*page.Page) bool) {
	//socrates:ignore-err pages that failed the drain stay dirty and reach the replica through log apply instead of the seed copy
	_ = f.flushOnce()
	f.disk.Range(fn)
}

// close stops the flusher after a final drain.
func (f *bufferedFile) close() {
	select {
	case <-f.done:
		return
	default:
	}
	close(f.done)
	f.wg.Wait()
}

var _ fcb.PageFile = (*bufferedFile)(nil)
