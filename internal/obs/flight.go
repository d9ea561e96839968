package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"sort"
	"sync/atomic"
	"time"
)

// FlightRecorder is the always-on postmortem buffer: a fixed-size
// lock-free ring of compact structured events recorded at the repo's
// choke points (group-commit flush, LZ destage, GetPage@LSN misses and
// waits, apply-loop batches, checkpoints, failover steps, retryable
// errors). When something goes wrong — a watchdog trip, a failed close —
// Dump renders the seconds leading up to it as time-ordered JSONL.
//
// Writers claim a slot with one atomic increment and publish the event
// with one atomic pointer store; there are no locks anywhere on the
// record path, so choke points can afford an event per batch. Dumpers
// read the same atomic pointers, so a dump taken mid-flight sees each
// slot either empty, old, or new — never torn. All methods are nil-safe.
type FlightRecorder struct {
	slots  []atomic.Pointer[FlightEvent]
	mask   uint64
	cursor atomic.Uint64
}

// FlightEvent is one ring entry. Events are small on purpose: the ring is
// sized in events, and a dump is read by humans mid-incident.
type FlightEvent struct {
	TS     int64   `json:"ts"` // unix nanos
	Tier   string  `json:"tier"`
	Kind   string  `json:"kind"`
	LSN    uint64  `json:"lsn,omitempty"`
	Trace  TraceID `json:"trace,omitempty"`
	DurNS  int64   `json:"dur_ns,omitempty"`
	Detail string  `json:"detail,omitempty"`
}

// defaultFlightSlots is the default ring capacity.
const defaultFlightSlots = 4096

// NewFlightRecorder builds a recorder with the given capacity (rounded up
// to a power of two; <= 0 uses defaultFlightSlots).
func NewFlightRecorder(size int) *FlightRecorder {
	if size <= 0 {
		size = defaultFlightSlots
	}
	n := 1
	for n < size {
		n <<= 1
	}
	return &FlightRecorder{slots: make([]atomic.Pointer[FlightEvent], n), mask: uint64(n - 1)}
}

// Record appends one event to the ring.
func (f *FlightRecorder) Record(tier, kind string, lsn uint64, dur time.Duration, detail string) {
	f.RecordTrace(tier, kind, lsn, 0, dur, detail)
}

// RecordTrace is Record with an attributed trace ID.
func (f *FlightRecorder) RecordTrace(tier, kind string, lsn uint64, trace TraceID, dur time.Duration, detail string) {
	if f == nil {
		return
	}
	e := &FlightEvent{
		TS:     time.Now().UnixNano(),
		Tier:   tier,
		Kind:   kind,
		LSN:    lsn,
		Trace:  trace,
		DurNS:  int64(dur),
		Detail: detail,
	}
	i := f.cursor.Add(1) - 1
	f.slots[i&f.mask].Store(e)
}

// Events returns a time-ordered copy of the retained ring contents.
func (f *FlightRecorder) Events() []FlightEvent {
	if f == nil {
		return nil
	}
	out := make([]FlightEvent, 0, len(f.slots))
	for i := range f.slots {
		if e := f.slots[i].Load(); e != nil {
			out = append(out, *e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].TS < out[j].TS })
	return out
}

// Dump writes the retained events as time-ordered JSONL (one event per
// line) — the flight recorder's postmortem format.
func (f *FlightRecorder) Dump(w io.Writer) error {
	if f == nil {
		return nil
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, e := range f.Events() {
		if err := enc.Encode(e); err != nil {
			return err
		}
	}
	return bw.Flush()
}
