package xstore

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"socrates/internal/obs"
	"socrates/internal/simdisk"
)

func newFast() *Store { return New(Config{Profile: simdisk.Instant}) }

func TestPutGetRoundTrip(t *testing.T) {
	s := newFast()
	if err := put(s, "a", []byte("alpha")); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get("a")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "alpha" {
		t.Fatalf("got %q", got)
	}
}

func TestGetMissing(t *testing.T) {
	s := newFast()
	if _, err := s.Get("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

func TestPutReplacesVersion(t *testing.T) {
	s := newFast()
	_ = put(s, "a", []byte("v1"))
	_ = put(s, "a", []byte("version-two"))
	got, err := s.Get("a")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "version-two" {
		t.Fatalf("got %q", got)
	}
	n, _ := s.Size("a")
	if n != int64(len("version-two")) {
		t.Fatalf("size = %d", n)
	}
}

func TestAppendBuildsMultiExtentBlob(t *testing.T) {
	s := newFast()
	for i := 0; i < 5; i++ {
		if err := s.Append("log", []byte(fmt.Sprintf("rec%d;", i))); err != nil {
			t.Fatal(err)
		}
	}
	got, err := s.Get("log")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "rec0;rec1;rec2;rec3;rec4;" {
		t.Fatalf("got %q", got)
	}
}

func TestReadAtSpansExtents(t *testing.T) {
	s := newFast()
	_ = s.Append("b", []byte("aaaa"))
	_ = s.Append("b", []byte("bbbb"))
	_ = s.Append("b", []byte("cccc"))
	got, err := s.ReadAt("b", 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "aabbbbcc" {
		t.Fatalf("got %q", got)
	}
}

func TestReadAtBounds(t *testing.T) {
	s := newFast()
	_ = put(s, "b", []byte("12345"))
	if _, err := s.ReadAt("b", 3, 10); err == nil {
		t.Fatal("read past end should fail")
	}
	if _, err := s.ReadAt("b", -1, 2); err == nil {
		t.Fatal("negative offset should fail")
	}
	got, err := s.ReadAt("b", 5, 0)
	if err != nil || len(got) != 0 {
		t.Fatalf("zero-length read at end: %v %q", err, got)
	}
}

func TestExists(t *testing.T) {
	s := newFast()
	if s.Exists("a") {
		t.Fatal("a blob never written exists")
	}
	_ = put(s, "a", []byte("x"))
	if !s.Exists("a") {
		t.Fatal("blob should exist")
	}
}

func TestListByPrefix(t *testing.T) {
	s := newFast()
	for _, n := range []string{"db1/p0", "db1/p1", "db2/p0"} {
		_ = put(s, n, []byte("x"))
	}
	got := s.List("db1/")
	if len(got) != 2 || got[0] != "db1/p0" || got[1] != "db1/p1" {
		t.Fatalf("list = %v", got)
	}
	if all := s.List(""); len(all) != 3 {
		t.Fatalf("full list = %v", all)
	}
}

func TestSnapshotIsolatesFromLaterWrites(t *testing.T) {
	s := newFast()
	_ = put(s, "data", []byte("before"))
	if err := s.Snapshot("snap1"); err != nil {
		t.Fatal(err)
	}
	_ = put(s, "data", []byte("after"))
	_ = put(s, "new", []byte("created-later"))

	got, err := snapshotGet(s, "snap1", "data")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "before" {
		t.Fatalf("snapshot read %q, want before", got)
	}
	if _, err := snapshotGet(s, "snap1", "new"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("later blob visible in snapshot: %v", err)
	}
	// Live view unaffected.
	live, _ := s.Get("data")
	if string(live) != "after" {
		t.Fatalf("live read %q", live)
	}
}

// TestSnapshotSurvivesDelete: deleting one snapshot leaves another that
// lists the same extents whole.
func TestSnapshotSurvivesDelete(t *testing.T) {
	s := newFast()
	_ = put(s, "data", []byte("precious"))
	_ = s.Snapshot("snap")
	_ = s.Snapshot("other")
	_ = put(s, "data", []byte("overwritten"))
	_ = s.DeleteSnapshot("other")
	got, err := snapshotGet(s, "snap", "data")
	if err != nil || string(got) != "precious" {
		t.Fatalf("snapshot lost data: %v %q", err, got)
	}
}

// TestSnapshotIsConstantTime is the paper's headline backup property: the
// snapshot cost must not depend on data size (§3.5).
func TestSnapshotIsConstantTime(t *testing.T) {
	s := newFast()
	_ = put(s, "small", make([]byte, 1024))
	timeSnap := func(name string) time.Duration {
		start := time.Now()
		if err := s.Snapshot(name); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	small := timeSnap("s1")
	_ = put(s, "big", make([]byte, 16<<20))
	big := timeSnap("s2")
	// Both must be quick metadata ops; allow generous slack for scheduling.
	if small > 50*time.Millisecond || big > 50*time.Millisecond {
		t.Fatalf("snapshot not constant-time: small=%v big=%v", small, big)
	}
	r, _, br, _ := s.Stats()
	_ = r
	if br != 0 {
		t.Fatalf("snapshot moved %d bytes of data", br)
	}
}

func TestRestoreCreatesIndependentBlobs(t *testing.T) {
	s := newFast()
	_ = put(s, "db/page0", []byte("zero"))
	_ = put(s, "db/page1", []byte("one"))
	_ = s.Snapshot("bak")
	_ = put(s, "db/page0", []byte("ZERO-MUTATED"))

	if err := s.Restore("bak", "restored/"); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get("restored/db/page0")
	if err != nil || string(got) != "zero" {
		t.Fatalf("restored read: %v %q", err, got)
	}
	// Copy-on-write: writing the restored blob must not disturb the
	// original or the snapshot.
	_ = put(s, "restored/db/page0", []byte("patched"))
	orig, _ := s.Get("db/page0")
	if string(orig) != "ZERO-MUTATED" {
		t.Fatalf("original disturbed: %q", orig)
	}
	snap, _ := snapshotGet(s, "bak", "db/page0")
	if string(snap) != "zero" {
		t.Fatalf("snapshot disturbed: %q", snap)
	}
}

func TestRestoreMissingSnapshot(t *testing.T) {
	s := newFast()
	if err := s.Restore("ghost", "x/"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestDeleteSnapshot(t *testing.T) {
	s := newFast()
	_ = s.Snapshot("s")
	if err := s.DeleteSnapshot("s"); err != nil {
		t.Fatal(err)
	}
	if err := s.DeleteSnapshot("s"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
}

// TestListFromSnapshot: a restored snapshot lists the blobs it froze, not
// those written after it.
func TestListFromSnapshot(t *testing.T) {
	s := newFast()
	_ = put(s, "db/a", []byte("1"))
	_ = s.Snapshot("s")
	_ = put(s, "db/b", []byte("2"))
	if err := s.Restore("s", "r/"); err != nil {
		t.Fatal(err)
	}
	if names := s.List("r/db/"); len(names) != 1 || names[0] != "r/db/a" {
		t.Fatalf("names = %v", names)
	}
}

func TestCompactPreservesAllVersions(t *testing.T) {
	s := newFast()
	_ = put(s, "a", []byte("a-v1"))
	_ = s.Snapshot("snap")
	_ = put(s, "a", []byte("a-v2"))
	for i := 0; i < 3; i++ {
		_ = s.Append("log", []byte("entry;"))
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if got, _ := s.Get("a"); string(got) != "a-v2" {
		t.Fatalf("live blob after compact: %q", got)
	}
	if got, _ := snapshotGet(s, "snap", "a"); string(got) != "a-v1" {
		t.Fatalf("snapshot blob after compact: %q", got)
	}
	if got, _ := s.Get("log"); string(got) != "entry;entry;entry;" {
		t.Fatalf("appended blob after compact: %q", got)
	}
}

func TestOutagePropagates(t *testing.T) {
	s := newFast()
	_ = put(s, "a", []byte("x"))
	s.SetOutage(true)
	if err := put(s, "b", []byte("y")); err == nil {
		t.Fatal("put during outage should fail")
	}
	if _, err := s.Get("a"); err == nil {
		t.Fatal("get during outage should fail")
	}
	s.SetOutage(false)
	if _, err := s.Get("a"); err != nil {
		t.Fatalf("after outage: %v", err)
	}
}

func TestLiveAndLogBytes(t *testing.T) {
	s := newFast()
	_ = put(s, "a", make([]byte, 100))
	_ = put(s, "a", make([]byte, 100)) // old version becomes garbage
	if s.LiveBytes() != 100 {
		t.Fatalf("live = %d, want 100", s.LiveBytes())
	}
	if logBytes(s) != 200 {
		t.Fatalf("log = %d, want 200", logBytes(s))
	}
}

func TestIngestCapThrottles(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	s := New(Config{Profile: simdisk.Instant, IngestMBps: 1})
	_ = put(s, "burst", make([]byte, 1<<20)) // consume the burst allowance
	start := time.Now()
	_ = put(s, "x", make([]byte, 512<<10)) // 0.5 MiB at 1 MiB/s
	if e := time.Since(start); e < 300*time.Millisecond {
		t.Fatalf("ingest-capped put took %v, want >= 300ms", e)
	}
}

func TestConcurrentPutGet(t *testing.T) {
	s := newFast()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			name := fmt.Sprintf("blob-%d", n)
			payload := bytes.Repeat([]byte{byte(n)}, 256)
			for j := 0; j < 40; j++ {
				if err := put(s, name, payload); err != nil {
					t.Error(err)
					return
				}
				got, err := s.Get(name)
				if err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(got, payload) {
					t.Errorf("worker %d read torn blob", n)
					return
				}
			}
		}(i)
	}
	wg.Wait()
}

// Property: a random interleaving of Put/Append per blob matches a simple
// map[string][]byte model.
func TestBlobModelEquivalence(t *testing.T) {
	type op struct {
		Name   uint8
		Append bool
		Data   []byte
	}
	f := func(ops []op) bool {
		s := newFast()
		model := map[string][]byte{}
		for _, o := range ops {
			name := fmt.Sprintf("b%d", o.Name%4)
			if o.Append {
				if err := s.Append(name, o.Data); err != nil {
					return false
				}
				model[name] = append(model[name], o.Data...)
			} else {
				if err := put(s, name, o.Data); err != nil {
					return false
				}
				model[name] = append([]byte(nil), o.Data...)
			}
		}
		for name, want := range model {
			got, err := s.Get(name)
			if err != nil {
				return false
			}
			if !bytes.Equal(got, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: snapshots are immutable under any later mutation sequence.
func TestSnapshotImmutabilityProperty(t *testing.T) {
	f := func(initial, later [][]byte) bool {
		s := newFast()
		want := map[string][]byte{}
		for i, d := range initial {
			name := fmt.Sprintf("b%d", i%3)
			_ = put(s, name, d)
			want[name] = append([]byte(nil), d...)
		}
		_ = s.Snapshot("frozen")
		for i, d := range later {
			name := fmt.Sprintf("b%d", i%3)
			_ = s.Append(name, d)
		}
		for name, w := range want {
			got, err := snapshotGet(s, "frozen", name)
			if err != nil || !bytes.Equal(got, w) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// batchOf builds a PutBatch of n page-sized blobs named prefix+i, each
// filled with its fill byte.
func batchOf(prefix string, n, size int, fill byte) ([]byte, []BatchBlob) {
	buf := bytes.Repeat([]byte{fill}, n*size)
	blobs := make([]BatchBlob, n)
	for i := range blobs {
		blobs[i] = BatchBlob{Name: fmt.Sprintf("%s%d", prefix, i), Len: size}
	}
	return buf, blobs
}

// TestPutBatchIsOneWriteAndAllOrNothing: a batch costs one device write
// however many blobs it names, and a batch whose write fails changes no
// blob — the versions before it stay readable.
func TestPutBatchIsOneWriteAndAllOrNothing(t *testing.T) {
	s := newFast()
	buf, blobs := batchOf("p", 64, 512, 'a')
	_, w0, _, _ := s.Stats()
	if err := s.PutBatch(buf, blobs); err != nil {
		t.Fatal(err)
	}
	if _, w1, _, _ := s.Stats(); w1-w0 != 1 {
		t.Fatalf("a 64-blob batch cost %d device writes, want 1", w1-w0)
	}

	s.SetOutage(true)
	buf2, _ := batchOf("p", 64, 512, 'b')
	if err := s.PutBatch(buf2, blobs); err == nil {
		t.Fatal("batch during an outage reported success")
	}
	s.SetOutage(false)
	for _, b := range blobs {
		got, err := s.Get(b.Name)
		if err != nil || !bytes.Equal(got, bytes.Repeat([]byte{'a'}, 512)) {
			t.Fatalf("%s after the failed batch: %v, %q...", b.Name, err, got[:4])
		}
	}
	if err := s.PutBatch(buf2[:100], blobs); err == nil {
		t.Fatal("a batch whose lengths do not add up to its buffer was accepted")
	}
}

// TestSnapshotSeesWholeBatches: snapshots taken while batches land hold
// every blob of a batch at the same version.
func TestSnapshotSeesWholeBatches(t *testing.T) {
	s := newFast()
	const rounds = 50
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for r := 0; r < rounds; r++ {
			buf, blobs := batchOf("p", 16, 64, byte(r))
			if err := s.PutBatch(buf, blobs); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < rounds; i++ {
		snap := fmt.Sprintf("s%d", i)
		if err := s.Snapshot(snap); err != nil {
			t.Fatal(err)
		}
		// Each round restores over the last one's copies under "r/". A
		// snapshot holds every live blob, earlier restores included, so a
		// prefix of its own per round would double the store each round.
		if err := s.Restore(snap, "r/"); err != nil {
			t.Fatal(err)
		}
		var version []byte
		for _, n := range s.List("r/p") {
			got, err := s.Get(n)
			if err != nil {
				t.Fatal(err)
			}
			if version == nil {
				version = got
			} else if !bytes.Equal(got, version) {
				t.Fatalf("snapshot %s holds %s at version %d next to version %d", snap, n, got[0], version[0])
			}
		}
	}
	wg.Wait()
}

// TestDeadSegmentsGoBack: overwriting blobs leaves the store holding about
// one generation of them, not every generation ever written; what it keeps
// reads back whole, and LogBytes still counts everything appended.
func TestDeadSegmentsGoBack(t *testing.T) {
	s := newFast()
	const n, size, rounds = 64, 8192, 20
	for r := 0; r < rounds; r++ {
		buf, blobs := batchOf("p", n, size, byte(r))
		if err := s.PutBatch(buf, blobs); err != nil {
			t.Fatal(err)
		}
	}
	generation := int64(n * size)
	if logBytes(s) != rounds*generation {
		t.Fatalf("log = %d, want %d", logBytes(s), rounds*generation)
	}
	if s.LiveBytes() != generation {
		t.Fatalf("live = %d, want %d", s.LiveBytes(), generation)
	}
	// The newest generation, the one before it while the head was inside
	// its last segment, and a segment of slack.
	if max := 2*generation + segSize; footprintOf(s) > max {
		t.Fatalf("footprint = %d after %d generations of %d, want <= %d", footprintOf(s), rounds, generation, max)
	}
	for i := 0; i < n; i++ {
		got, err := s.Get(fmt.Sprintf("p%d", i))
		if err != nil || !bytes.Equal(got, bytes.Repeat([]byte{rounds - 1}, size)) {
			t.Fatalf("p%d: %v", i, err)
		}
	}
}

// TestSnapshotPinsSegments: segments a snapshot still lists stay, and read
// back the old images, through any number of overwrites; they go when the
// snapshot and the blobs restored from it do.
func TestSnapshotPinsSegments(t *testing.T) {
	s := newFast()
	const n, size = 64, 8192
	generation := int64(n * size)
	buf, blobs := batchOf("p", n, size, 'o')
	if err := s.PutBatch(buf, blobs); err != nil {
		t.Fatal(err)
	}
	if err := s.Snapshot("old"); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 10; r++ {
		buf, _ := batchOf("p", n, size, byte(r))
		if err := s.PutBatch(buf, blobs); err != nil {
			t.Fatal(err)
		}
	}
	if footprintOf(s) >= logBytes(s) {
		t.Fatal("ten overwritten generations and no segment went back")
	}
	if err := s.Restore("old", "r/"); err != nil {
		t.Fatal(err)
	}
	old := bytes.Repeat([]byte{'o'}, size)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("p%d", i)
		if got, err := s.Get("r/" + name); err != nil || !bytes.Equal(got, old) {
			t.Fatalf("restored read of %s: %v", name, err)
		}
	}
	pinned := footprintOf(s)
	if err := s.DeleteSnapshot("old"); err != nil {
		t.Fatal(err)
	}
	if footprintOf(s) != pinned {
		t.Fatal("deleting the snapshot freed segments the restored blobs still list")
	}
	// Overwriting the restored blobs lets the old generation's last
	// listing go; the overwrite's own bytes are not what was freed.
	buf, restored := batchOf("r/p", n, size, 'n')
	if err := s.PutBatch(buf, restored); err != nil {
		t.Fatal(err)
	}
	if freed := pinned + generation - footprintOf(s); freed < generation-2*segSize {
		t.Fatalf("dropping the last listing of the old generation freed %d bytes, want about %d", freed, generation)
	}
}

// TestCompactEmptiesSparseSegments: with one long-lived blob left in every
// segment of a dead generation, nothing can go back until the cleaner moves
// the survivors — which costs I/O for the survivors, not for the live data.
func TestCompactEmptiesSparseSegments(t *testing.T) {
	s := newFast()
	const perSeg = segSize / 8192
	const n = 16 * perSeg
	buf, blobs := batchOf("p", n, 8192, 'a')
	if err := s.PutBatch(buf, blobs); err != nil {
		t.Fatal(err)
	}
	if err := s.Snapshot("keep"); err != nil { // pins every survivor's old image too
		t.Fatal(err)
	}
	// Overwrite all but the first blob of each segment.
	var hot []BatchBlob
	for i, b := range blobs {
		if i%perSeg != 0 {
			hot = append(hot, b)
		}
	}
	if err := s.PutBatch(bytes.Repeat([]byte{'b'}, len(hot)*8192), hot); err != nil {
		t.Fatal(err)
	}
	if err := s.DeleteSnapshot("keep"); err != nil {
		t.Fatal(err)
	}
	before := footprintOf(s)
	_, w0, _, bw0 := s.Stats()
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	_, w1, _, bw1 := s.Stats()
	if w1-w0 != 16 || bw1-bw0 != 16*8192 {
		t.Fatalf("cleaner wrote %d extents, %d bytes; want the 16 survivors, %d bytes", w1-w0, bw1-bw0, 16*8192)
	}
	if freed := before - footprintOf(s); freed < 15*segSize {
		t.Fatalf("cleaner freed %d bytes, want about %d", freed, 16*segSize)
	}
	for i, b := range blobs {
		want := byte('b')
		if i%perSeg == 0 {
			want = 'a'
		}
		if got, err := s.Get(b.Name); err != nil || got[0] != want || got[8191] != want {
			t.Fatalf("%s after Compact: %v", b.Name, err)
		}
	}
	_, w2, _, _ := s.Stats()
	if err := s.Compact(); err != nil || func() bool { _, w3, _, _ := s.Stats(); return w3 != w2 }() {
		t.Fatalf("a second Compact, with no sparse segment left, wrote again (err %v)", err)
	}
}

// TestReadsPinWhatTheyRead: readers racing overwrites (and the cleaner)
// never find a segment gone from under them.
func TestReadsPinWhatTheyRead(t *testing.T) {
	s := newFast()
	const n, size = 32, 8192
	buf, blobs := batchOf("p", n, size, 0)
	if err := s.PutBatch(buf, blobs); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				got, err := s.Get(fmt.Sprintf("p%d", (g+i)%n))
				if err != nil || got[0] != got[size-1] {
					t.Errorf("read racing an overwrite: err %v", err)
					return
				}
			}
		}(g)
	}
	for r := 1; r <= 100; r++ {
		buf, _ := batchOf("p", n, size, byte(r))
		if err := s.PutBatch(buf, blobs); err != nil {
			t.Fatal(err)
		}
		if r%10 == 0 {
			if err := s.Compact(); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	wg.Wait()
}

// TestIngestCapServesMoreThanOneSecondOfRate: a write larger than a second
// of the ingest cap — a checkpoint batch under Table 5's throttle — is let
// through in instalments instead of waiting forever for a full bucket that
// could never hold it.
func TestIngestCapServesMoreThanOneSecondOfRate(t *testing.T) {
	s := New(Config{Profile: simdisk.Instant, IngestMBps: 0.01}) // ~10 KiB/s
	buf, blobs := batchOf("p", 3, 3600, 'x')                     // 10,800 B: the burst and a little more
	done := make(chan error, 1)
	go func() { done <- s.PutBatch(buf, blobs) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("a batch larger than one second of the ingest cap never returned")
	}
}

// TestSpaceInstruments: the store's space accounting is on the registry.
func TestSpaceInstruments(t *testing.T) {
	reg := obs.NewRegistry()
	s := New(Config{Profile: simdisk.Instant, Obs: obs.Plane{Metrics: reg}})
	buf, blobs := batchOf("p", 64, 8192, 'a')
	for r := 0; r < 4; r++ {
		if err := s.PutBatch(buf, blobs); err != nil {
			t.Fatal(err)
		}
	}
	snap := reg.Snapshot()
	footprint, garbage := snap.Gauges["xstore.footprint_bytes"], snap.Gauges["xstore.garbage_bytes"]
	reclaimed := int64(snap.Counters["xstore.reclaimed.bytes"])
	if footprint != footprintOf(s) || footprint+reclaimed != logBytes(s) {
		t.Fatalf("footprint %d + reclaimed %d, store says footprint %d of log %d", footprint, reclaimed, footprintOf(s), logBytes(s))
	}
	if reclaimed == 0 || garbage != footprint-s.LiveBytes() {
		t.Fatalf("reclaimed %d, garbage %d with footprint %d and live %d", reclaimed, garbage, footprint, s.LiveBytes())
	}
	if snap.Counters["xstore.write.ops"] != 4 || snap.Counters["xstore.write.bytes"] != uint64(logBytes(s)) {
		t.Fatalf("write.ops %d, write.bytes %d for 4 batches of %d", snap.Counters["xstore.write.ops"], snap.Counters["xstore.write.bytes"], len(buf))
	}
}

// put stores data as a one-blob batch.
func put(s *Store, name string, data []byte) error {
	return s.PutBatch(data, []BatchBlob{{Name: name, Len: len(data)}})
}

// snapshotGet reads blob as snapshot snap froze it, the way a restore reads
// it: restored under a prefix of its own, then read live.
func snapshotGet(s *Store, snap, blob string) ([]byte, error) {
	prefix := "restored-" + snap + "/"
	if err := s.Restore(snap, prefix); err != nil {
		return nil, err
	}
	return s.Get(prefix + blob)
}

// logBytes is every byte the log has taken, garbage and segments given
// back included; footprintOf is what the device still holds of it.
func logBytes(s *Store) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.written
}

func footprintOf(s *Store) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.written - s.reclaimed
}
