// Package fcb is the I/O stack virtualization layer (§3.6). SQL Server
// abstracts every device behind a "File Control Block"; Socrates slots new
// FCB implementations underneath the engine so that "most components
// believe they are components of a monolithic, standalone database system".
//
// Here the same role is played by the PageFile interface: the storage
// engine (B-tree, version store, transaction manager) reads and writes
// pages through a PageFile and never learns whether pages live in a local
// memory map (unit tests), on a local simulated disk (HADR replicas), or
// behind an RBPEX cache backed by remote page servers via GetPage@LSN
// (Socrates compute nodes — implemented in internal/compute).
package fcb

import (
	"errors"
	"fmt"
	"sync"

	"socrates/internal/page"
	"socrates/internal/simdisk"
)

// ErrNotFound reports a read of a page that was never written.
var ErrNotFound = errors.New("fcb: page not found")

// PageFile is the engine's view of page storage.
//
// Pages crossing this interface are immutable (page.Page, DESIGN §16): Read
// may return the very page a cache holds, shared with every other reader,
// and Write takes ownership of the page it is given. To change a page, build
// a new one and Write it.
type PageFile interface {
	// Read returns the current version of the page. Implementations
	// backed by remote storage block until they can serve a version at
	// least as new as the caller's node requires (GetPage@LSN).
	Read(id page.ID) (*page.Page, error)
	// Write installs a new version of the page.
	Write(pg *page.Page) error
}

// MemFile is a PageFile held entirely in memory — the FCB used by unit
// tests and by throwaway engines (e.g. PITR replay scratch space).
type MemFile struct {
	mu    sync.RWMutex
	pages map[page.ID]*page.Page
}

// NewMemFile returns an empty in-memory page file.
func NewMemFile() *MemFile {
	return &MemFile{pages: make(map[page.ID]*page.Page)}
}

// Read returns the stored page itself, shared and immutable.
func (f *MemFile) Read(id page.ID) (*page.Page, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	pg, ok := f.pages[id]
	if !ok {
		return nil, fmt.Errorf("%w: page %d", ErrNotFound, id)
	}
	return pg, nil
}

// Write takes ownership of the page and stores it.
func (f *MemFile) Write(pg *page.Page) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.pages[pg.ID] = pg
	return nil
}

// Range calls fn for every page until fn returns false.
func (f *MemFile) Range(fn func(*page.Page) bool) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	for _, pg := range f.pages {
		if !fn(pg) {
			return
		}
	}
}

// DiskFile is a PageFile over a simulated device: page k lives at offset
// k * page.Size. HADR replicas use it for their full local database copy.
type DiskFile struct {
	dev *simdisk.Device

	mu      sync.Mutex
	written map[page.ID]bool
}

// OpenDisk opens (and, if the device already holds pages, recovers) a
// disk-backed page file. Recovery scans the device and indexes every page
// that decodes cleanly.
func OpenDisk(dev *simdisk.Device) (*DiskFile, error) {
	f := &DiskFile{dev: dev, written: make(map[page.ID]bool)}
	n := dev.Size() / page.Size
	buf := make([]byte, page.Size)
	for i := int64(0); i < n; i++ {
		if err := dev.ReadAt(buf, i*page.Size); err != nil {
			return nil, err
		}
		pg, err := page.Decode(buf)
		if err != nil {
			continue // unused or torn slot
		}
		if int64(pg.ID) == i {
			f.written[pg.ID] = true
		}
	}
	return f, nil
}

// Read fetches and decodes the page from disk.
func (f *DiskFile) Read(id page.ID) (*page.Page, error) {
	f.mu.Lock()
	ok := f.written[id]
	f.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: page %d", ErrNotFound, id)
	}
	buf := make([]byte, page.Size)
	if err := f.dev.ReadAt(buf, int64(id)*page.Size); err != nil {
		return nil, err
	}
	return page.Decode(buf)
}

// Write persists the page's image: the one it was read from if it was read
// (the device copies it), a fresh encoding if it was built in memory.
func (f *DiskFile) Write(pg *page.Page) error {
	buf, err := pg.Encode()
	if err != nil {
		return err
	}
	if err := f.dev.WriteAt(buf, int64(pg.ID)*page.Size); err != nil {
		return err
	}
	f.mu.Lock()
	f.written[pg.ID] = true
	f.mu.Unlock()
	return nil
}

// Range calls fn for every stored page until fn returns false. Iteration
// order is unspecified. Used for O(size-of-data) full copies (HADR seeding).
func (f *DiskFile) Range(fn func(*page.Page) bool) {
	f.mu.Lock()
	ids := make([]page.ID, 0, len(f.written))
	for id := range f.written {
		ids = append(ids, id)
	}
	f.mu.Unlock()
	for _, id := range ids {
		pg, err := f.Read(id)
		if err != nil {
			continue
		}
		if !fn(pg) {
			return
		}
	}
}

var (
	_ PageFile = (*MemFile)(nil)
	_ PageFile = (*DiskFile)(nil)
)
