package logwriter

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"socrates/internal/page"
	"socrates/internal/wal"
)

// fakeSink keeps a durable prefix the way a landing zone or a quorum does: a
// completed group is durable once every group below it is. fail scripts a
// Complete's error by the group's start LSN; a failed group stays held, so a
// later completion's prefix can pass it. With hold set, every Complete waits
// for one token of release after announcing itself on entered.
type fakeSink struct {
	hold    bool
	entered chan page.LSN
	release chan struct{}

	mu        sync.Mutex
	reserved  []wal.Block // in Reserve order
	held      map[page.LSN]page.LSN
	durable   page.LSN
	fail      map[page.LSN]error
	cur, peak int // Completes in flight
}

func newFakeSink(hold bool) *fakeSink {
	// entered has room for every group a test cuts, so a Complete never
	// waits to announce itself.
	return &fakeSink{hold: hold, entered: make(chan page.LSN, 64), release: make(chan struct{}),
		held: map[page.LSN]page.LSN{}, durable: 1, fail: map[page.LSN]error{}}
}

func (s *fakeSink) Reserve(b wal.Block) (Reservation, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.reserved = append(s.reserved, b)
	return Reservation{Payload: b.Encode()}, nil
}

func (s *fakeSink) Complete(b wal.Block, _ Reservation) (page.LSN, error) {
	s.mu.Lock()
	s.cur++
	s.peak = max(s.peak, s.cur)
	s.mu.Unlock()
	if s.hold {
		s.entered <- b.Start
		<-s.release
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cur--
	s.held[b.Start] = b.End
	if err := s.fail[b.Start]; err != nil {
		return 0, err
	}
	for end, ok := s.held[s.durable]; ok; end, ok = s.held[s.durable] {
		s.durable = end
	}
	return s.durable, nil
}

func (s *fakeSink) durableEnd() page.LSN {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.durable
}

func (s *fakeSink) reserves() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.reserved)
}

// A group its sink loses fails its own committers with the sink's error and
// nothing else: the writer stays open, and the next group's completion
// carries the durable prefix past the lost one. An error of any other class
// poisons the writer.
func TestLostGroupFailsOnlyItsCommitters(t *testing.T) {
	sink := newFakeSink(false)
	lostErr := fmt.Errorf("replicas gone: %w", ErrGroupLost)
	sink.fail[1] = lostErr
	w := New(sink, 1)
	defer w.Close()
	ctx := context.Background()

	lsn1 := w.Append(wal.NewCommit(1, 1))
	lsn2 := w.Append(wal.NewCommit(2, 2))
	for _, lsn := range []page.LSN{lsn1, lsn2} {
		if err := w.WaitHarden(ctx, lsn); err != lostErr {
			t.Fatalf("committer of the lost group at %d: %v, want the sink's error", lsn, err)
		}
	}
	if got := w.HardenedEnd(); got != 1 {
		t.Fatalf("hardened %d after the only group was lost, want 1", got)
	}

	lsn3 := w.Append(wal.NewCommit(3, 3))
	if err := w.WaitHarden(ctx, lsn3); err != nil {
		t.Fatalf("the group after a lost one: %v (the writer was poisoned)", err)
	}
	if got := w.HardenedEnd(); got != lsn3+1 {
		t.Fatalf("hardened %d, want %d: the prefix passes the lost group", got, lsn3+1)
	}
	for _, lsn := range []page.LSN{lsn1, lsn2, lsn3} {
		if err := w.WaitHarden(ctx, lsn); err != nil {
			t.Fatalf("LSN %d once the prefix passed it: %v", lsn, err)
		}
	}

	diskErr := errors.New("local log device gone")
	lsn4 := w.Append(wal.NewCommit(4, 4))
	sink.mu.Lock()
	sink.fail[lsn4] = diskErr
	sink.mu.Unlock()
	if err := w.WaitHarden(ctx, lsn4); err != diskErr {
		t.Fatalf("committer of a group failed outside the lost class: %v, want %v", err, diskErr)
	}
	reserves := sink.reserves()
	lsn5 := w.Append(wal.NewCommit(5, 5))
	if err := w.WaitHarden(ctx, lsn5); err != diskErr {
		t.Fatalf("committer after the poisoning: %v, want %v", err, diskErr)
	}
	if got := sink.reserves(); got != reserves {
		t.Fatalf("a poisoned writer reserved %d more groups", got-reserves)
	}
}

// Sixteen committers on a sink whose completions the test holds: eight
// leaders fill the pipeline, one group each; the other eight follow, and no
// ninth group starts until one of the eight completes. Reserve stays in LSN
// order.
func TestSixteenCommittersKeepEightWritesInFlight(t *testing.T) {
	sink := newFakeSink(true)
	w := New(sink, 1)
	defer w.Close()

	var wg sync.WaitGroup
	commit := func(n int) {
		defer wg.Done()
		w.Append(&wal.Record{Kind: wal.KindCellPut, Page: page.ID(n + 1), Txn: uint64(n + 1), Key: []byte("k")})
		lsn := w.Append(wal.NewCommit(uint64(n+1), uint64(n+1)))
		if err := w.WaitHarden(context.Background(), lsn); err != nil {
			t.Errorf("committer %d: %v", n, err)
		}
	}
	wg.Add(16)
	for n := 0; n < maxInflight; n++ {
		go commit(n)
		<-sink.entered // its leader's write is held: the next commit is its own group
	}
	for n := maxInflight; n < 16; n++ {
		go commit(n)
	}
	w.mu.Lock()
	if w.inflightCnt != maxInflight {
		t.Errorf("inflightCnt = %d with %d writes held, want %d", w.inflightCnt, maxInflight, maxInflight)
	}
	w.mu.Unlock()
	sink.release <- struct{}{} // one write lands: one slot frees
	<-sink.entered             // a follower leads what was appended meanwhile
	close(sink.release)
	wg.Wait()

	sink.mu.Lock()
	defer sink.mu.Unlock()
	if sink.peak != maxInflight {
		t.Fatalf("peak writes in flight = %d, want %d", sink.peak, maxInflight)
	}
	if want := page.LSN(1).Add(32); sink.durable != want {
		t.Fatalf("durable end %d, want %d", sink.durable, want)
	}
	next := page.LSN(1)
	for _, b := range sink.reserved {
		if b.Start != next {
			t.Fatalf("reserved a block at LSN %d, want %d: Reserve left LSN order", b.Start, next)
		}
		next = b.End
	}
}
