package experiments

import (
	"fmt"
	"sort"

	"socrates/internal/cdb"
	"socrates/internal/cluster"
	"socrates/internal/simdisk"
)

// abPairs is how many enabled/disabled pairs an on/off A/B measures.
const abPairs = 3

// onOff measures what a plane that can be gated off costs in throughput: the
// same CDB mix runs on identical Socrates deployments with the plane on and
// off, in interleaved pairs, and the median of the per-pair throughput
// deltas, (off-on)/off in percent, is the plane's overhead. Interleaving
// plus a median is needed because run-to-run TPS noise on a loaded host
// (~±10%) swamps the effect being measured; a negative overhead means noise
// exceeded the cost. gate sets the plane's switch on a fresh deployment;
// seen runs after each enabled drive, to collect the evidence that the
// plane was live while we measured.
func onOff(name string, mix cdb.Mix, o Options, gate func(*cluster.Cluster, bool), seen func(*cluster.Cluster)) (onTPS, offTPS, overheadPct float64, err error) {
	run := func(pair int, enabled bool) (tps float64, err error) {
		err = withSocrates(fmt.Sprintf("%s-%d-%v", name, pair, enabled), simdisk.XIO, 16, 256, 512, o.SF/2,
			func(s *cluster.Cluster, w *cdb.Workload) error {
				gate(s, enabled)
				tps = driveCDB(s.Primary().Engine, w, mix, 16, s.PrimaryMeter, o.window(o.Threads)).TotalTPS()
				if enabled {
					seen(s)
				}
				return nil
			})
		return tps, err
	}
	var on, off, deltas []float64
	for i := 0; i < abPairs; i++ {
		// Alternate which arm goes first within each pair so host warm-up
		// and drift bias neither arm systematically.
		order := [2]bool{false, true}
		if i%2 == 1 {
			order = [2]bool{true, false}
		}
		var pairOn, pairOff float64
		for _, enabled := range order {
			tps, err := run(i, enabled)
			if err != nil {
				return 0, 0, 0, err
			}
			if enabled {
				pairOn = tps
			} else {
				pairOff = tps
			}
		}
		on, off = append(on, pairOn), append(off, pairOff)
		if pairOff > 0 {
			deltas = append(deltas, 100*(pairOff-pairOn)/pairOff)
		}
	}
	return median(on), median(off), median(deltas), nil
}

// onOffReport lays out an on/off A/B: one row per arm, the overhead against
// its budget as a note, and a warning — never a failure — when this host's
// run exceeds the budget.
func onOffReport(plane string, onTPS, offTPS, overheadPct, budgetPct float64) Report {
	rep := Report{Header: []string{plane, "Total TPS"}}
	rep.rowf("disabled\t%.0f", offTPS)
	rep.rowf("enabled\t%.0f", onTPS)
	rep.value("enabled-tps", onTPS)
	rep.value("disabled-tps", offTPS)
	rep.value("overhead%", overheadPct)
	rep.notef("Overhead: %.1f%% (target < %.0f%%), median of %d interleaved pairs", overheadPct, budgetPct, abPairs)
	if overheadPct >= budgetPct {
		rep.notef("WARNING: overhead exceeds the %.0f%% budget on this host", budgetPct)
	}
	if onTPS <= 0 || offTPS <= 0 {
		rep.Shape = fmt.Errorf("zero throughput: enabled %.0f, disabled %.0f", onTPS, offTPS)
	}
	return rep
}

// flightOverhead measures the observability plane's cost on the group-commit
// path: the max-log mix with the flight recorder enabled vs the ring gated
// off. Both arms keep the watermark ladder live — watermark publication is
// a handful of atomics and is not gateable — so the A/B isolates the flight
// ring specifically. The plane's budget is <5%; the ring records per-flush
// and per-batch events (not per-commit), so the true cost is expected to be
// noise-level.
func flightOverhead(o Options) (Report, error) {
	o = o.defaults()
	// events counts what the last enabled run recorded (including any
	// evicted by ring wraparound) and watermarks the distinct LSN
	// watermarks it published.
	var events uint64
	var watermarks int
	on, off, overhead, err := onOff("obs", cdb.MaxLogMix, o,
		func(s *cluster.Cluster, enabled bool) { s.Flight.SetEnabled(enabled) },
		func(s *cluster.Cluster) { events, watermarks = s.Flight.Recorded(), len(s.Watermarks.Snapshot()) })
	if err != nil {
		return Report{}, err
	}
	rep := onOffReport("Flight recorder", on, off, overhead, 5)
	rep.value("events", float64(events))
	rep.value("watermarks", float64(watermarks))
	rep.notef("%d events recorded, %d watermarks live", events, watermarks)
	// The enabled arm must actually have been observing: flight events
	// recorded and the LSN ladder populated (commit, hardened, promoted,
	// destaged, archived, truncated, applied, checkpoint at minimum).
	switch {
	case rep.Shape != nil: // zero throughput: already said
	case events == 0:
		rep.Shape = fmt.Errorf("flight recorder recorded nothing")
	case watermarks < 5:
		rep.Shape = fmt.Errorf("watermark ladder too sparse (%d names)", watermarks)
	}
	return rep, nil
}

// median returns the middle value (lower median for even counts), or 0 for
// an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[len(s)/2]
}
