package hekaton

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"testing/quick"

	"socrates/internal/simdisk"
)

func newDev() *simdisk.Device { return simdisk.New(simdisk.Instant) }

func TestPutGetDelete(t *testing.T) {
	tb, err := Open(newDev())
	if err != nil {
		t.Fatal(err)
	}
	if err := put(tb, "a", []byte("1")); err != nil {
		t.Fatal(err)
	}
	v, ok := get(tb, "a")
	if !ok || string(v) != "1" {
		t.Fatalf("get = %q %v", v, ok)
	}
	if err := del(tb, "a"); err != nil {
		t.Fatal(err)
	}
	if _, ok := get(tb, "a"); ok {
		t.Fatal("deleted key still visible")
	}
	if err := del(tb, "never-existed"); err != nil {
		t.Fatal("deleting absent key should be a no-op")
	}
}

func TestApplyCopiesValue(t *testing.T) {
	tb, _ := Open(newDev())
	v := []byte("orig")
	_ = put(tb, "k", v)
	v[0] = 'X'
	if got, _ := get(tb, "k"); string(got) != "orig" {
		t.Fatal("Apply kept the caller's buffer")
	}
}

func TestRecoveryAfterRestart(t *testing.T) {
	dev := newDev()
	tb, _ := Open(dev)
	for i := 0; i < 50; i++ {
		_ = put(tb, fmt.Sprintf("k%d", i), []byte(fmt.Sprintf("v%d", i)))
	}
	_ = del(tb, "k10")
	_ = put(tb, "k20", []byte("updated"))

	// "Crash": reopen from the same device.
	tb2, err := Open(dev)
	if err != nil {
		t.Fatal(err)
	}
	if len(rowsOf(tb2)) != 49 {
		t.Fatalf("recovered %d rows, want 49", len(rowsOf(tb2)))
	}
	if _, ok := get(tb2, "k10"); ok {
		t.Fatal("deleted key resurrected")
	}
	if v, _ := get(tb2, "k20"); string(v) != "updated" {
		t.Fatalf("k20 = %q", v)
	}
}

func TestRecoveryStopsAtTornTail(t *testing.T) {
	dev := newDev()
	tb, _ := Open(dev)
	_ = put(tb, "safe", []byte("durable"))
	// Simulate a torn write: append garbage that looks like a partial entry.
	end := tb.logEnd
	if err := dev.WriteAt([]byte{opPut, 5, 0}, end); err != nil {
		t.Fatal(err)
	}
	tb2, err := Open(dev)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := get(tb2, "safe"); !ok || string(v) != "durable" {
		t.Fatal("durable prefix lost")
	}
	if len(rowsOf(tb2)) != 1 {
		t.Fatalf("rows = %d, want 1", len(rowsOf(tb2)))
	}
	// The table remains writable after recovering past a tear.
	if err := put(tb2, "after", []byte("x")); err != nil {
		t.Fatal(err)
	}
	tb3, _ := Open(dev)
	if _, ok := get(tb3, "after"); !ok {
		t.Fatal("post-tear write lost")
	}
}

func TestRecoveryRejectsBadMagic(t *testing.T) {
	dev := newDev()
	_ = dev.WriteAt([]byte("this is not a hekaton table......"), 0)
	if _, err := Open(dev); err == nil {
		t.Fatal("bad magic should fail open")
	}
}

func TestCheckpointCompactsAndRecovers(t *testing.T) {
	dev := newDev()
	tb, _ := Open(dev)
	for i := 0; i < 100; i++ {
		_ = put(tb, "hot", []byte(fmt.Sprintf("gen%d", i)))
	}
	before := tb.logEnd
	if err := tb.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	after := tb.logEnd
	if after >= before {
		t.Fatalf("checkpoint did not compact: %d -> %d", before, after)
	}
	// Post-checkpoint mutations land in the append region.
	_ = put(tb, "hot", []byte("post-ckpt"))
	_ = put(tb, "new", []byte("row"))

	tb2, err := Open(dev)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := get(tb2, "hot"); string(v) != "post-ckpt" {
		t.Fatalf("hot = %q", v)
	}
	if v, _ := get(tb2, "new"); string(v) != "row" {
		t.Fatalf("new = %q", v)
	}
}

func TestCheckpointEmptyTable(t *testing.T) {
	dev := newDev()
	tb, _ := Open(dev)
	_ = put(tb, "x", []byte("y"))
	_ = del(tb, "x")
	if err := tb.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	tb2, err := Open(dev)
	if err != nil {
		t.Fatal(err)
	}
	if len(rowsOf(tb2)) != 0 {
		t.Fatalf("rows = %d", len(rowsOf(tb2)))
	}
}

func TestRange(t *testing.T) {
	tb, _ := Open(newDev())
	want := map[string]string{"a": "1", "b": "2", "c": "3"}
	for k, v := range want {
		_ = put(tb, k, []byte(v))
	}
	got := map[string]string{}
	tb.Range(func(k string, v []byte) bool {
		got[k] = string(v)
		return true
	})
	if len(got) != 3 || got["a"] != "1" || got["b"] != "2" || got["c"] != "3" {
		t.Fatalf("range = %v", got)
	}
	// Early stop.
	count := 0
	tb.Range(func(string, []byte) bool { count++; return false })
	if count != 1 {
		t.Fatalf("early-stop range visited %d", count)
	}
}

func TestConcurrentWriters(t *testing.T) {
	dev := newDev()
	tb, _ := Open(dev)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				key := fmt.Sprintf("w%d-k%d", w, i)
				if err := put(tb, key, []byte(key)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if len(rowsOf(tb)) != 240 {
		t.Fatalf("rows = %d, want 240", len(rowsOf(tb)))
	}
	tb2, err := Open(dev)
	if err != nil {
		t.Fatal(err)
	}
	if len(rowsOf(tb2)) != 240 {
		t.Fatalf("recovered rows = %d, want 240", len(rowsOf(tb2)))
	}
}

// Property: after any op sequence and a restart, the table matches a map.
// Batch marks an op that joins the Apply batch being collected instead of
// going through Put or Delete on its own; the batch is applied when the next
// unmarked op (or the end) comes.
func TestRecoveryModelEquivalence(t *testing.T) {
	type op struct {
		Key    uint8
		Val    []byte
		Delete bool
		Ckpt   bool
		Batch  bool
	}
	f := func(ops []op) bool {
		dev := newDev()
		tb, err := Open(dev)
		if err != nil {
			return false
		}
		model := map[string][]byte{}
		var batch []Op
		flush := func() bool {
			defer func() { batch = nil }()
			return tb.Apply(batch) == nil
		}
		for _, o := range ops {
			key := fmt.Sprintf("k%d", o.Key%8)
			if !o.Batch && !flush() {
				return false
			}
			switch {
			case o.Ckpt:
				if !flush() || tb.Checkpoint() != nil {
					return false
				}
			case o.Delete:
				if o.Batch {
					batch = append(batch, Op{Key: key, Delete: true})
				} else if del(tb, key) != nil {
					return false
				}
				delete(model, key)
			default:
				if o.Batch {
					batch = append(batch, Op{Key: key, Val: o.Val})
				} else if put(tb, key, o.Val) != nil {
					return false
				}
				model[key] = append([]byte(nil), o.Val...)
			}
		}
		if !flush() {
			return false
		}
		for _, table := range []*Table{tb, reopen(t, dev)} {
			if len(rowsOf(table)) != len(model) {
				return false
			}
			for k, want := range model {
				got, ok := get(table, k)
				if !ok || !bytes.Equal(got, want) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func reopen(t *testing.T, dev *simdisk.Device) *Table {
	t.Helper()
	tb, err := Open(dev)
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

// put, del and get are one-op Apply calls and a Range lookup.
func put(tb *Table, key string, val []byte) error { return tb.Apply([]Op{{Key: key, Val: val}}) }

func del(tb *Table, key string) error { return tb.Apply([]Op{{Key: key, Delete: true}}) }

func get(tb *Table, key string) (val []byte, ok bool) {
	tb.Range(func(k string, v []byte) bool {
		if k == key {
			val, ok = bytes.Clone(v), true
		}
		return !ok
	})
	return val, ok
}

func rowsOf(tb *Table) map[string]string {
	out := map[string]string{}
	tb.Range(func(k string, v []byte) bool { out[k] = string(v); return true })
	return out
}

// TestApplyIsOneDeviceWrite: a batch reaches the log as one append, whatever
// its size, and a batch that changes nothing writes nothing.
func TestApplyIsOneDeviceWrite(t *testing.T) {
	dev := newDev()
	tb := reopen(t, dev)
	var ops []Op
	for i := 0; i < 16; i++ {
		ops = append(ops, Op{Key: fmt.Sprintf("k%02d", i), Val: []byte{byte(i)}})
	}
	ops = append(ops, Op{Key: "k03", Delete: true}, Op{Key: "absent", Delete: true})
	_, before, _, _ := dev.Stats()
	if err := tb.Apply(ops); err != nil {
		t.Fatal(err)
	}
	if _, after, _, _ := dev.Stats(); after-before != 1 {
		t.Fatalf("a batch of %d changes took %d device writes, want 1", len(ops), after-before)
	}
	if len(rowsOf(tb)) != 15 {
		t.Fatalf("rows = %d, want 15", len(rowsOf(tb)))
	}
	_, before, _, _ = dev.Stats()
	end := tb.logEnd
	if err := tb.Apply([]Op{{Key: "absent", Delete: true}, {Key: "k03", Delete: true}}); err != nil {
		t.Fatal(err)
	}
	if _, after, _, _ := dev.Stats(); after != before || tb.logEnd != end {
		t.Fatal("deleting absent keys wrote to the log")
	}
	if err := tb.Apply(nil); err != nil {
		t.Fatal(err)
	}
}

// TestApplySameKeyTwice: the batch means what its changes mean one after
// another, also when two of them name one key — in memory and after replay.
func TestApplySameKeyTwice(t *testing.T) {
	dev := newDev()
	tb := reopen(t, dev)
	_ = put(tb, "kept", []byte("old"))
	_ = put(tb, "gone", []byte("old"))
	err := tb.Apply([]Op{
		{Key: "kept", Delete: true}, {Key: "kept", Val: []byte("new")}, // delete, then put
		{Key: "gone", Val: []byte("new")}, {Key: "gone", Delete: true}, // put, then delete
		{Key: "fresh", Val: []byte("1")}, {Key: "fresh", Delete: true}, {Key: "fresh", Delete: true},
		{Key: "twice", Val: []byte("1")}, {Key: "twice", Val: []byte("2")},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{"kept": "new", "twice": "2"}
	for name, table := range map[string]*Table{"live": tb, "recovered": reopen(t, dev)} {
		if got := rowsOf(table); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s table = %v, want %v", name, got, want)
		}
	}
}

// TestApplyTornBatchRecoversPrefix: every entry of a batch carries its own
// checksum, so cutting the append anywhere recovers the changes that were
// whole, in order, and nothing of the rest.
func TestApplyTornBatchRecoversPrefix(t *testing.T) {
	dev := newDev()
	tb := reopen(t, dev)
	_ = put(tb, "victim", []byte("v"))
	start := tb.logEnd
	batch := []Op{
		{Key: "victim", Delete: true},
		{Key: "a", Val: []byte("1")},
		{Key: "b", Val: []byte("2")},
		{Key: "a", Val: []byte("3")},
	}
	if err := tb.Apply(batch); err != nil {
		t.Fatal(err)
	}
	end := tb.logEnd
	image := make([]byte, end)
	if err := dev.ReadAt(image, 0); err != nil {
		t.Fatal(err)
	}
	// The states a prefix of the batch can leave, by the number of whole
	// entries recovered.
	states := []string{
		fmt.Sprint(map[string]string{"victim": "v"}),
		fmt.Sprint(map[string]string{}),
		fmt.Sprint(map[string]string{"a": "1"}),
		fmt.Sprint(map[string]string{"a": "1", "b": "2"}),
		fmt.Sprint(map[string]string{"a": "3", "b": "2"}),
	}
	reached := 0
	for cut := start; cut <= end; cut++ {
		torn := newDev()
		if err := torn.WriteAt(image[:cut], 0); err != nil {
			t.Fatal(err)
		}
		got := fmt.Sprint(rowsOf(reopen(t, torn)))
		for reached+1 < len(states) && got == states[reached+1] {
			reached++
		}
		if got != states[reached] {
			t.Fatalf("cut at byte %d of [%d,%d]: rows %s, want %s (a prefix of the batch)",
				cut, start, end, got, states[reached])
		}
	}
	if reached != len(states)-1 {
		t.Fatalf("the whole batch recovered only to state %d of %d", reached, len(states)-1)
	}
}
