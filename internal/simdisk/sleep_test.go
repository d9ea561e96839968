package simdisk

import (
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
)

// TestSleepPreciseNeverEarly: however the dispatcher parks and spins, no
// sleeper returns before its deadline.
func TestSleepPreciseNeverEarly(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		d := time.Duration(r.Int63n(int64(5 * time.Millisecond)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			deadline := time.Now().Add(d)
			SleepPrecise(d)
			if now := time.Now(); now.Before(deadline) {
				t.Errorf("a %v sleep returned %v early", d, deadline.Sub(now))
			}
		}()
	}
	wg.Wait()
}

// TestEarlierDeadlineWakesParkedDispatcher: a deadline earlier than the one
// the dispatcher is parked toward cuts the park short. The 5 s bound is
// liveness, not timing: with the wake-up lost, the 1 ms sleep would wait out
// the 10 s park. The test runs its own dispatcher, because the 10 s waiter
// outlives it.
func TestEarlierDeadlineWakesParkedDispatcher(t *testing.T) {
	s := &sleepDispatcher{}
	far := time.Now().Add(10 * time.Second)
	s.after(far)
	for giveUp := time.Now().Add(5 * time.Second); ; time.Sleep(100 * time.Microsecond) {
		s.mu.Lock()
		parked := s.target.Equal(far)
		s.mu.Unlock()
		if parked {
			break
		}
		if time.Now().After(giveUp) {
			t.Fatal("the dispatcher never parked toward its only deadline")
		}
	}
	bound := time.NewTimer(5 * time.Second)
	defer bound.Stop()
	select {
	case <-s.after(time.Now().Add(time.Millisecond)):
	case <-bound.C:
		t.Fatal("a 1 ms sleep behind a parked 10 s one had not returned after 5 s")
	}
}

// TestDispatcherExitsWhenIdle: the dispatcher goroutine exists only while
// someone sleeps.
func TestDispatcherExitsWhenIdle(t *testing.T) {
	var wg sync.WaitGroup
	for i := 1; i <= 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			SleepPrecise(time.Duration(i) * 100 * time.Microsecond)
		}()
	}
	wg.Wait()
	for giveUp := time.Now().Add(5 * time.Second); ; time.Sleep(100 * time.Microsecond) {
		dispatcher.mu.Lock()
		running := dispatcher.running
		dispatcher.mu.Unlock()
		if !running {
			return
		}
		if time.Now().After(giveUp) {
			t.Fatal("the dispatcher still runs 5 s after its last waiter was released")
		}
	}
}

// BenchmarkSleepPrecise: 8 sleepers at once, each cycling through the
// LocalSSD read, LAN hop, XIO read and XIO write bases. It reports how late
// the sleepers wake and the host CPU the process spends per sleep; the
// sleepers do nothing else, so that CPU is the dispatcher's.
func BenchmarkSleepPrecise(b *testing.B) {
	durs := [...]time.Duration{70 * time.Microsecond, 120 * time.Microsecond,
		1200 * time.Microsecond, 2800 * time.Microsecond}
	const sleepers = 8
	late := make([][]time.Duration, sleepers)
	var taken atomic.Int64
	var before, after syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &before); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	start := time.Now()
	var wg sync.WaitGroup
	for g := range late {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := g; taken.Add(1) <= int64(b.N); i++ {
				d := durs[i%len(durs)]
				deadline := time.Now().Add(d)
				SleepPrecise(d)
				late[g] = append(late[g], time.Since(deadline))
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	b.StopTimer()
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &after); err != nil {
		b.Fatal(err)
	}
	cpu := time.Duration(after.Utime.Nano() + after.Stime.Nano() -
		before.Utime.Nano() - before.Stime.Nano())
	all := slices.Concat(late...)
	slices.Sort(all)
	b.ReportMetric(float64(all[len(all)/2])/1e3, "late_us_p50")
	b.ReportMetric(float64(all[len(all)*99/100])/1e3, "late_us_p99")
	b.ReportMetric(float64(cpu)/1e3/float64(b.N), "cpu_us/op")
	b.ReportMetric(float64(cpu)/float64(wall), "cores")
}
