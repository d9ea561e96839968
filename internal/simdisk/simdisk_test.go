package simdisk

import (
	"bytes"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"socrates/internal/metrics"
)

func TestWriteReadRoundTrip(t *testing.T) {
	d := New(Instant)
	want := []byte("hello socrates")
	if err := d.WriteAt(want, 100); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(want))
	if err := d.ReadAt(got, 100); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("read %q, want %q", got, want)
	}
	if d.Size() != 100+int64(len(want)) {
		t.Fatalf("size = %d, want %d", d.Size(), 100+len(want))
	}
}

func TestReadBeyondExtentFails(t *testing.T) {
	d := New(Instant)
	if err := d.WriteAt([]byte("abc"), 0); err != nil {
		t.Fatal(err)
	}
	err := d.ReadAt(make([]byte, 10), 0)
	if !errors.Is(err, errOutOfRange) {
		t.Fatalf("err = %v, want ErrOutOfRange", err)
	}
}

func TestNegativeOffsetRejected(t *testing.T) {
	d := New(Instant)
	if err := d.WriteAt([]byte("x"), -1); err == nil {
		t.Fatal("negative-offset write should fail")
	}
	if err := d.ReadAt(make([]byte, 1), -1); !errors.Is(err, errOutOfRange) {
		t.Fatalf("negative-offset read err = %v, want ErrOutOfRange", err)
	}
}

func TestOverlappingWrites(t *testing.T) {
	d := New(Instant)
	if err := d.WriteAt([]byte("aaaaaa"), 0); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteAt([]byte("bb"), 2); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 6)
	if err := d.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if string(got) != "aabbaa" {
		t.Fatalf("got %q, want aabbaa", got)
	}
}

func TestOutageInjection(t *testing.T) {
	d := New(Instant)
	d.SetOutage(true)
	if err := d.WriteAt([]byte("x"), 0); !errors.Is(err, ErrOutage) {
		t.Fatalf("err = %v, want ErrOutage", err)
	}
	d.SetOutage(false)
	if err := d.WriteAt([]byte("x"), 0); err != nil {
		t.Fatalf("after outage clears: %v", err)
	}
}

func TestFailNextIsOneShot(t *testing.T) {
	d := New(Instant)
	boom := errors.New("boom")
	d.FailNext(boom)
	if err := d.WriteAt([]byte("x"), 0); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if err := d.WriteAt([]byte("x"), 0); err != nil {
		t.Fatalf("second call should succeed, got %v", err)
	}
}

func TestTruncate(t *testing.T) {
	d := New(Instant)
	if err := d.WriteAt([]byte("abcdef"), 0); err != nil {
		t.Fatal(err)
	}
	d.Truncate(3)
	if d.Size() != 3 {
		t.Fatalf("size = %d, want 3", d.Size())
	}
	d.Truncate(10)
	got := make([]byte, 10)
	if err := d.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if string(got[:3]) != "abc" || !bytes.Equal(got[3:], make([]byte, 7)) {
		t.Fatalf("got %q after grow-truncate", got)
	}
	d.Truncate(-5)
	if d.Size() != 0 {
		t.Fatalf("size = %d after negative truncate, want 0", d.Size())
	}
}

func TestLatencyModelOrdersProfiles(t *testing.T) {
	// The mean of 20 sampled 4 KB write latencies, off a seeded generator:
	// the model's figures, not the wall clock's.
	mean := func(p Profile) time.Duration {
		rng := rand.New(rand.NewSource(42))
		var sum time.Duration
		for i := 0; i < 20; i++ {
			sum += p.Latency(p.WriteBase, 4096, rng)
		}
		return sum / 20
	}
	ssd, dd, xio := mean(LocalSSD), mean(DirectDrive), mean(XIO)
	if !(ssd < dd && dd < xio) {
		t.Fatalf("latency ordering violated: ssd=%v dd=%v xio=%v", ssd, dd, xio)
	}
	// The XIO/DD median write gap in Table 6 is roughly 4x.
	ratio := float64(xio) / float64(dd)
	if ratio < 2 || ratio > 10 {
		t.Fatalf("xio/dd latency ratio = %.1f, want within [2,10]", ratio)
	}
}

func TestCPUCharging(t *testing.T) {
	m := metrics.NewCPUMeter(1)
	d := New(Instant, WithCPU(m))
	d.profile.WriteCPU = 10 * time.Microsecond
	d.profile.ReadCPU = 3 * time.Microsecond
	if err := d.WriteAt([]byte("x"), 0); err != nil {
		t.Fatal(err)
	}
	if err := d.ReadAt(make([]byte, 1), 0); err != nil {
		t.Fatal(err)
	}
	if got := m.Busy(); got != 13*time.Microsecond {
		t.Fatalf("charged %v, want 13us", got)
	}
}

func TestStatsCounting(t *testing.T) {
	d := New(Instant)
	_ = d.WriteAt(make([]byte, 100), 0)
	_ = d.WriteAt(make([]byte, 50), 0)
	_ = d.ReadAt(make([]byte, 30), 0)
	r, w, br, bw := d.Stats()
	if r != 1 || w != 2 || br != 30 || bw != 150 {
		t.Fatalf("stats = %d %d %d %d, want 1 2 30 150", r, w, br, bw)
	}
}

func TestThroughputCap(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	p := Instant
	p.throughputMBps = 1 // 1 MiB/s
	d := New(p)
	// Drain the initial burst allowance, then time a capped transfer.
	_ = d.WriteAt(make([]byte, 1<<20), 0)
	start := time.Now()
	_ = d.WriteAt(make([]byte, 512<<10), 0) // 0.5 MiB at 1 MiB/s ≈ 500 ms
	elapsed := time.Since(start)
	if elapsed < 300*time.Millisecond {
		t.Fatalf("capped write took %v, want >= 300ms", elapsed)
	}
}

func TestConcurrentAccess(t *testing.T) {
	d := New(Instant)
	d.Truncate(8 * 64)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			buf := bytes.Repeat([]byte{byte(n)}, 64)
			off := int64(n * 64)
			for j := 0; j < 50; j++ {
				if err := d.WriteAt(buf, off); err != nil {
					t.Error(err)
					return
				}
				got := make([]byte, 64)
				if err := d.ReadAt(got, off); err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(got, buf) {
					t.Errorf("worker %d read torn data", n)
					return
				}
			}
		}(i)
	}
	wg.Wait()
}

// Property: any sequence of writes then a full read returns exactly the
// byte image a plain slice model would hold.
func TestWriteModelEquivalence(t *testing.T) {
	type op struct {
		Off  uint16
		Data []byte
	}
	f := func(ops []op) bool {
		d := New(Instant)
		model := []byte{}
		for _, o := range ops {
			if len(o.Data) == 0 {
				continue
			}
			if err := d.WriteAt(o.Data, int64(o.Off)); err != nil {
				return false
			}
			end := int(o.Off) + len(o.Data)
			if end > len(model) {
				grown := make([]byte, end)
				copy(grown, model)
				model = grown
			}
			copy(model[o.Off:], o.Data)
		}
		if d.Size() != int64(len(model)) {
			return false
		}
		if len(model) == 0 {
			return true
		}
		got := make([]byte, len(model))
		if err := d.ReadAt(got, 0); err != nil {
			return false
		}
		return bytes.Equal(got, model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestReplicatedQuorumWrite(t *testing.T) {
	r, err := NewReplicated(Instant, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.WriteAt([]byte("quorum"), 0); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 6)
	if err := r.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if string(got) != "quorum" {
		t.Fatalf("read %q", got)
	}
}

func TestReplicatedToleratesMinorityFailure(t *testing.T) {
	r, err := NewReplicated(Instant, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	r.Replicas()[0].SetOutage(true)
	if err := r.WriteAt([]byte("ok"), 0); err != nil {
		t.Fatalf("write with 2/3 healthy replicas failed: %v", err)
	}
	// Read also succeeds via a healthy replica.
	got := make([]byte, 2)
	if err := r.ReadAt(got, 0); err != nil {
		t.Fatalf("read: %v", err)
	}
}

func TestReplicatedLosesQuorum(t *testing.T) {
	r, err := NewReplicated(Instant, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	r.Replicas()[0].SetOutage(true)
	r.Replicas()[1].SetOutage(true)
	err = r.WriteAt([]byte("x"), 0)
	if !errors.Is(err, errQuorumLost) {
		t.Fatalf("err = %v, want ErrQuorumLost", err)
	}
}

func TestReplicatedInvalidConfig(t *testing.T) {
	for _, tc := range []struct{ n, q int }{{0, 1}, {3, 0}, {3, 4}, {-1, -1}} {
		if _, err := NewReplicated(Instant, tc.n, tc.q); err == nil {
			t.Errorf("NewReplicated(%d,%d) should fail", tc.n, tc.q)
		}
	}
}

func TestReplicatedWriteIsolatedFromCallerBuffer(t *testing.T) {
	r, _ := NewReplicated(Instant, 3, 1) // quorum 1: stragglers run late
	buf := []byte("original")
	if err := r.WriteAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	copy(buf, "clobber!") // caller reuses the buffer immediately
	time.Sleep(20 * time.Millisecond)
	for i, rep := range r.Replicas() {
		got := make([]byte, 8)
		if err := rep.ReadAt(got, 0); err != nil {
			continue // straggler may not have landed; quorum=1
		}
		if string(got) != "original" {
			t.Fatalf("replica %d saw caller's clobbered buffer: %q", i, got)
		}
	}
}

func TestQuorumWaitsForSecondFastest(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	p := Instant
	p.WriteBase = 5 * time.Millisecond
	r, _ := NewReplicated(p, 3, 2)
	start := time.Now()
	if err := r.WriteAt([]byte("x"), 0); err != nil {
		t.Fatal(err)
	}
	if e := time.Since(start); e < 4*time.Millisecond {
		t.Fatalf("quorum write returned in %v, faster than one replica write", e)
	}
}

// TestChunkedStoreMatchesSliceModel drives writes, truncates and reads that
// straddle chunk boundaries and leave whole chunks unwritten, against the
// single-slice model the device used to be: same size, same bytes, zeros
// wherever nothing was written — also after a shrink and regrow.
func TestChunkedStoreMatchesSliceModel(t *testing.T) {
	d := New(Instant)
	var model []byte
	resize := func(n int) {
		if n <= len(model) {
			model = model[:n]
			return
		}
		model = append(model, make([]byte, n-len(model))...)
	}
	r := rand.New(rand.NewSource(16))
	const span = 5 * chunkSize
	for i := 0; i < 400; i++ {
		switch r.Intn(5) {
		case 0:
			n := r.Intn(span)
			d.Truncate(int64(n))
			resize(n)
		default:
			// Offsets cluster around chunk boundaries.
			off := r.Intn(5)*chunkSize + r.Intn(2048) - 1024
			if off < 0 {
				off = 0
			}
			data := make([]byte, 1+r.Intn(3*chunkSize/2))
			r.Read(data)
			if err := d.WriteAt(data, int64(off)); err != nil {
				t.Fatal(err)
			}
			if off+len(data) > len(model) {
				resize(off + len(data))
			}
			copy(model[off:], data)
		}
		if d.Size() != int64(len(model)) {
			t.Fatalf("op %d: size %d, model %d", i, d.Size(), len(model))
		}
		got := make([]byte, len(model))
		if err := d.ReadAt(got, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, model) {
			t.Fatalf("op %d: device image differs from the slice model", i)
		}
	}
	if err := d.ReadAt(make([]byte, 1), d.Size()); !errors.Is(err, errOutOfRange) {
		t.Fatalf("read past the extent: %v", err)
	}
}

// TestWriteVec: a vectored write is its writes — each lands where it was
// aimed, counts as a device call and is charged as one — and it stops at the
// first that fails.
func TestWriteVec(t *testing.T) {
	var meter metrics.CPUMeter
	d := New(Profile{Name: "charged", WriteCPU: 5 * time.Microsecond}, WithCPU(&meter))
	bufs := [][]byte{[]byte("aaaa"), []byte("bb"), []byte("cccccc")}
	offs := []int64{100, 0, 50}
	if err := d.WriteVec(bufs, offs); err != nil {
		t.Fatal(err)
	}
	for i, want := range bufs {
		got := make([]byte, len(want))
		if err := d.ReadAt(got, offs[i]); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("piece %d: read %q, %v; want %q", i, got, err, want)
		}
	}
	if _, writes, _, written := d.Stats(); writes != 3 || written != 12 {
		t.Fatalf("stats: %d writes, %d bytes; want 3 and 12", writes, written)
	}
	if got := meter.Busy(); got != 15*time.Microsecond {
		t.Fatalf("charged %v, want 3 x 5µs", got)
	}
	if err := d.WriteVec(nil, nil); err != nil {
		t.Fatal(err)
	}

	boom := errors.New("boom")
	d.FailNext(boom)
	if err := d.WriteVec([][]byte{[]byte("x"), []byte("y")}, []int64{200, 201}); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the injected failure", err)
	}
	if d.Size() != 104 {
		t.Fatalf("size = %d after a vectored write that failed at its first piece, want 104", d.Size())
	}
}

// TestHoldWrites: a held device takes no write until it is released; reads
// go through meanwhile.
func TestHoldWrites(t *testing.T) {
	d := New(Instant)
	if err := d.WriteAt([]byte("old"), 0); err != nil {
		t.Fatal(err)
	}
	release := d.HoldWrites()
	done := make(chan error, 1)
	go func() { done <- d.WriteAt([]byte("new"), 0) }()
	got := make([]byte, 3)
	for i := 0; i < 100; i++ {
		if err := d.ReadAt(got, 0); err != nil || string(got) != "old" {
			t.Fatalf("read under a hold: %q, %v", got, err)
		}
	}
	select {
	case err := <-done:
		t.Fatalf("a write got through a held device (err %v)", err)
	default:
	}
	release()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := d.ReadAt(got, 0); err != nil || string(got) != "new" {
		t.Fatalf("after release: %q, %v", got, err)
	}
	d.HoldWrites()() // a released device can be held again
}

// TestDiscard: Discard frees the whole chunks inside its range and nothing
// else; the volume keeps its size, a read that touches a freed chunk fails
// instead of inventing zeros, and a write brings the chunk back.
func TestDiscard(t *testing.T) {
	d := New(Instant)
	data := bytes.Repeat([]byte{0xAB}, 4*chunkSize)
	if err := d.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	// Chunks 1 and 2 lie wholly inside [100, 3*chunkSize+100); 0 and 3 only
	// in part.
	d.Discard(100, 3*chunkSize)
	if d.Size() != int64(len(data)) {
		t.Fatalf("size = %d after Discard, want %d", d.Size(), len(data))
	}
	got := make([]byte, chunkSize)
	for _, ci := range []int64{0, 3} {
		if err := d.ReadAt(got, ci*chunkSize); err != nil || !bytes.Equal(got, data[:chunkSize]) {
			t.Fatalf("chunk %d, covered in part, did not keep its bytes: %v", ci, err)
		}
	}
	for _, off := range []int64{chunkSize, 2 * chunkSize, chunkSize - 1, 3*chunkSize - 1} {
		if err := d.ReadAt(got[:2], off); !errors.Is(err, errDiscarded) {
			t.Fatalf("read at %d touching a discarded chunk: err = %v, want ErrDiscarded", off, err)
		}
	}
	if err := d.WriteAt([]byte("back"), chunkSize+10); err != nil {
		t.Fatal(err)
	}
	if err := d.ReadAt(got[:4], chunkSize+10); err != nil || string(got[:4]) != "back" {
		t.Fatalf("rewritten chunk reads %q, %v", got[:4], err)
	}
	if err := d.ReadAt(got[:4], 2*chunkSize); !errors.Is(err, errDiscarded) {
		t.Fatalf("the other discarded chunk came back too: %v", err)
	}
	d.Discard(-5, 1<<40) // clamps to the volume
	if err := d.ReadAt(got[:1], 0); !errors.Is(err, errDiscarded) {
		t.Fatalf("whole-volume discard: err = %v", err)
	}
}

// TestTokenBucketLargerThanOneBurst: a request for more than a second of
// rate is served in instalments and costs exactly the time the extra tokens
// take to refill. The bucket runs on a fake clock: asked for in one piece,
// the request would wait for a level the bucket caps below, forever.
func TestTokenBucketLargerThanOneBurst(t *testing.T) {
	now := time.Unix(0, 0)
	var slept time.Duration
	b := NewTokenBucket(1000)
	b.last = now
	b.now = func() time.Time { return now }
	b.sleep = func(d time.Duration) {
		if slept += d; slept > time.Minute {
			t.Fatalf("still waiting after %v of fake time", slept)
		}
		now = now.Add(d)
	}
	// Fake time is exact up to float rounding in the refill arithmetic.
	near := func(want time.Duration) bool { return (slept - want).Abs() < time.Millisecond }
	b.Acquire(3500) // 1000 from the full bucket, 2500 at 1000/s
	if !near(2500 * time.Millisecond) {
		t.Fatalf("slept %v for 3500 tokens at 1000/s from a full bucket, want 2.5s", slept)
	}
	b.Acquire(10) // the bucket was left empty
	if !near(2510 * time.Millisecond) {
		t.Fatalf("slept %v in all, want 2.51s", slept)
	}
}
