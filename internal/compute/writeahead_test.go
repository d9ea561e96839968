package compute

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"socrates/internal/engine"
	"socrates/internal/fcb"
	"socrates/internal/obs"
	"socrates/internal/page"
	"socrates/internal/rbio"
	"socrates/internal/rbpex"
	"socrates/internal/simdisk"
)

// servedFile is a primary's page file over a page server that holds every
// version the primary wrote (served), and can serve it once the log that
// covers it is hard. A GetPage@LSN at or above the hardened end asks for log
// nobody has hardened: a real page server waits for it, and so does the
// commit. The stub records the request and fails it at once instead.
type servedFile struct {
	*remotePageFile
	served *fcb.MemFile

	mu    sync.Mutex
	above []string // the GetPage requests above the hardened LSN
}

// Read lets the cache's write-behind drain first, so which tier holds what
// is a function of the reads and writes alone.
func (f *servedFile) Read(id page.ID) (*page.Page, error) {
	f.Cache().Sync()
	return f.remotePageFile.Read(id)
}

func (f *servedFile) Write(pg *page.Page) error {
	if err := f.served.Write(pg); err != nil {
		return err
	}
	return f.remotePageFile.Write(pg)
}

func (f *servedFile) handler(hardened func() page.LSN) rbio.Handler {
	return func(_ context.Context, req *rbio.Request) *rbio.Response {
		if req.Type != rbio.MsgGetPage {
			return rbio.Errorf("unexpected %v", req.Type)
		}
		if end := hardened(); req.LSN.AtLeast(end) {
			f.mu.Lock()
			f.above = append(f.above, fmt.Sprintf("page %d at LSN %d (hardened end %d)", req.Page, req.LSN, end))
			f.mu.Unlock()
			return rbio.Errorf("page %d: LSN %d is not hardened", req.Page, req.LSN)
		}
		pg, err := f.served.Read(req.Page)
		if err != nil {
			return rbio.Errorf("%v", err)
		}
		buf, err := pg.Encode()
		if err != nil {
			return rbio.Errorf("%v", err)
		}
		resp := rbio.Ok()
		resp.Payload = buf
		return resp
	}
}

func (f *servedFile) fetchedAbove() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]string(nil), f.above...)
}

// TestCommitFetchesNothingAboveTheHardenedLSN: a primary with a 1+1-page
// cache commits two updates on two leaves — three pages dirtied, the version
// page twice — while the landing zone holds every write. The commit builds
// its pages in its own page set, so it never reads back from the cache a page
// it dirtied, and it reaches its commit record without one GetPage@LSN above
// the hardened LSN. A commit that installed each change at once would see
// the version page evicted by the next read and ask for it at an LSN in its
// own unwritten group: with the log held, that is a wait nobody ends.
func TestCommitFetchesNothingAboveTheHardenedLSN(t *testing.T) {
	lz, vol := newGatedLZ(t)
	w := newLZWriter(lz)
	defer w.Close()

	// Until the commit under test, every landing-zone write goes through.
	stop, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		for {
			select {
			case <-stop:
				return
			case <-vol.entered:
				vol.release <- struct{}{}
			}
		}
	}()

	// The database is built in memory, on the same log: the page server's
	// pages when the commit under test starts.
	served := fcb.NewMemFile()
	setup, err := engine.Create(engine.Config{Pages: served, Log: w})
	if err != nil {
		t.Fatal(err)
	}
	if err := setup.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	key := func(i int) []byte { return []byte(fmt.Sprintf("k%04d", i)) }
	commit := func(e *engine.Engine, keys []int, val string) error {
		tx := e.Begin()
		for _, i := range keys {
			if err := tx.Put("t", key(i), []byte(val)); err != nil {
				return err
			}
		}
		return tx.Commit()
	}
	// Enough rows for a root over several leaves, and one update each of
	// the two rows the test commit changes, so the version store has a page.
	pad := string(make([]byte, 200))
	var rows []int
	for i := 0; i < 120; i++ {
		rows = append(rows, i)
	}
	if err := commit(setup, rows, pad); err != nil {
		t.Fatal(err)
	}
	if err := commit(setup, []int{5, 115}, "v1"); err != nil {
		t.Fatal(err)
	}

	file := &servedFile{served: served}
	net := rbio.NewInstantNetwork()
	net.Serve("ps", file.handler(w.HardenedEnd))
	sel := rbio.NewSelector(rbio.NewClient(net.Dial("ps")))
	cfg := rbpex.Config{MemPages: 1, SSDPages: 1, SSD: simdisk.New(simdisk.Instant), Meta: simdisk.New(simdisk.Instant)}
	remote, err := newRemotePageFile(cfg, func(page.ID) (*rbio.Selector, error) { return sel, nil },
		func() page.LSN { return 1 }, obs.Plane{})
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	file.remotePageFile = remote
	e, err := engine.Open(engine.Config{Pages: file, Log: w})
	if err != nil {
		t.Fatal(err)
	}
	e.Clock().Publish(setup.Clock().Visible())

	close(stop)
	<-stopped
	done := make(chan error, 1)
	go func() { done <- commit(e, []int{5, 115}, "v2") }()
	select {
	case b := <-vol.entered:
		if above := file.fetchedAbove(); len(above) != 0 {
			t.Errorf("the commit reached its commit record (block at %d) after GetPage@LSN above the hardened LSN: %v", b, above)
		}
	case err := <-done:
		t.Fatalf("the commit returned %v before its group reached the landing zone; GetPage above the hardened LSN: %v",
			err, file.fetchedAbove())
	}
	close(vol.release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{5, 115} {
		got, found, err := e.BeginRO().Get("t", key(i))
		if err != nil || !found || string(got) != "v2" {
			t.Fatalf("row %d = %q %v %v, want v2", i, got, found, err)
		}
	}
}
