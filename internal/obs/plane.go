package obs

import (
	"bytes"
	"sync"
)

// Plane is the observability a tier is wired with: the tracer, the metrics
// registry, the LSN watermark ladder, the flight recorder, the wait-event
// accounting table and the lag watchdog. Every tier constructor takes one
// Plane by value, so a new instrument reaches every tier through this one
// struct. The zero Plane is "observability off": every handle is nil-safe.
//
// A tier that records waits resolves its recorder once, at construction,
// with Waits.Tier(TierX); Tier takes a lock and belongs on no hot path.
type Plane struct {
	Tracer     *Tracer
	Metrics    *Registry
	Watermarks *WatermarkSet
	Flight     *FlightRecorder
	Waits      *WaitSet
	Watchdog   *Watchdog

	// trip holds the flight dump frozen at the watchdog's first trip
	// (NewPlane); nil on a hand-built plane.
	trip *frozenDump
}

// frozenDump is the flight ring as it stood at the watchdog's first trip.
type frozenDump struct {
	mu   sync.Mutex
	dump []byte
}

// NewPlane builds a full plane: every handle, with the watchdog watching
// the ladder, publishing lag gauges into the registry and freezing the top
// wait classes of each trip's window. Every trip lands in the flight ring
// as a "watchdog.trip" event, and the first one freezes a copy of the ring
// (TripDump): a postmortem wants the ring near the stall, not at Close.
// The watchdog is not started.
func NewPlane(cfg WatchdogConfig) Plane {
	p := Plane{
		Tracer:     NewTracer(),
		Metrics:    NewRegistry(),
		Watermarks: NewWatermarkSet(),
		Flight:     NewFlightRecorder(0),
		Waits:      NewWaitSet(),
		trip:       &frozenDump{},
	}
	p.Watchdog = NewWatchdog(p.Watermarks, p.Metrics, p.Waits, cfg)
	p.Watchdog.OnTrip(func(t Trip) {
		p.Flight.Record("obs", "watchdog.trip", 0, t.LagTime, string(t.Kind)+": "+t.Detail)
		var buf bytes.Buffer
		// Dumping to a bytes.Buffer cannot fail: the encoder only errors on
		// unmarshalable values, and FlightEvent is plain data.
		_ = p.Flight.Dump(&buf)
		p.trip.mu.Lock()
		if p.trip.dump == nil {
			p.trip.dump = buf.Bytes()
		}
		p.trip.mu.Unlock()
	})
	return p
}

// TripDump returns the flight-recorder JSONL frozen at the watchdog's first
// trip (nil if it never fired, or the plane was not built by NewPlane).
func (p Plane) TripDump() []byte {
	if p.trip == nil {
		return nil
	}
	p.trip.mu.Lock()
	defer p.trip.mu.Unlock()
	return append([]byte(nil), p.trip.dump...)
}
