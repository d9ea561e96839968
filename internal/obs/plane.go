package obs

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
	Watchdog   *watchdog
}

// NewPlane builds a full plane: every handle, with the watchdog watching
// the ladder, publishing lag gauges into the registry, freezing the top
// wait classes of each trip's window and recording its trips in the flight
// ring. The watchdog is not started.
func NewPlane(cfg WatchdogConfig) Plane {
	p := Plane{
		Tracer:     NewTracer(),
		Metrics:    NewRegistry(),
		Watermarks: NewWatermarkSet(),
		Flight:     NewFlightRecorder(0),
		Waits:      NewWaitSet(),
	}
	p.Watchdog = newWatchdog(p.Watermarks, p.Metrics, p.Waits, p.Flight, cfg)
	return p
}
