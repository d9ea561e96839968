package experiments

import (
	"context"
	"fmt"
	"time"

	"socrates/internal/cdb"
	"socrates/internal/cluster"
	"socrates/internal/simdisk"
	"socrates/internal/sqlengine"
)

// waitOverhead measures what the wait-stats plane costs and what it buys.
// The cost side is an on/off A/B on the CDB default mix with the wait
// sketches recording vs gated off (budget <3% — every WaitPoint is a pair of
// time.Now calls plus a few atomics, so the true cost should be
// noise-level); per-request profiles stay live in both arms — SetEnabled
// gates only the sketches, matching the production knob. The benefit side
// is per-request attribution: the share of a committing statement's
// wall-clock latency its own wait breakdown explains (target >=80% — on an
// XIO landing zone a commit is almost entirely commit.harden).
func waitOverhead(o Options) (Report, error) {
	o = o.defaults()
	// classes is the number of distinct wait classes the last enabled run's
	// global sketch recorded, top the one with the most total blocked time.
	var classes int
	var top string
	on, off, overhead, err := onOff("waits", cdb.DefaultMix, o,
		func(s *cluster.Cluster, enabled bool) { s.Waits.SetEnabled(enabled) },
		func(s *cluster.Cluster) {
			if global := s.Waits.Report().Global; len(global) > 0 {
				classes, top = len(global), global[0].Class
			}
		})
	if err != nil {
		return Report{}, err
	}
	attributed, err := waitAttribution()
	if err != nil {
		return Report{}, err
	}
	rep := onOffReport("Wait accounting", on, off, overhead, 3)
	rep.value("classes", float64(classes))
	rep.value("attributed%", attributed)
	rep.notef("%d wait classes live, dominant: %s", classes, top)
	rep.notef("Per-request attribution: %.0f%% of commit latency explained (target >= 80%%)", attributed)
	if attributed < 80 {
		rep.notef("WARNING: attribution coverage below the 80%% target on this host")
	}
	// The enabled arm must have been accounting, and a commit must have
	// been charged some wait at all.
	switch {
	case rep.Shape != nil: // zero throughput: already said
	case classes == 0:
		rep.Shape = fmt.Errorf("wait sketches recorded no class")
	case attributed <= 0:
		rep.Shape = fmt.Errorf("per-request profiles attributed no wait to a commit")
	}
	return rep, nil
}

// waitAttribution drives single-statement INSERTs through the SQL front
// end on an XIO-backed deployment and reports the median share of each
// statement's wall-clock latency covered by its per-request wait
// breakdown. Commits on an XIO landing zone spend nearly all their time
// hardening, so the profile should explain almost all of the latency.
func waitAttribution() (float64, error) {
	s, err := newSocrates("waits-attr", simdisk.XIO, 16, 256, 512)
	if err != nil {
		return 0, err
	}
	defer s.Close()
	db := sqlengine.New(s.Primary().Engine)
	sess := db.Session()
	ctx := context.Background()
	if _, err := sess.ExecContext(ctx,
		"CREATE TABLE waits_attr (id INT PRIMARY KEY, v TEXT)"); err != nil {
		return 0, err
	}
	var ratios []float64
	for i := 0; i < 25; i++ {
		start := time.Now()
		res, err := sess.ExecContext(ctx,
			fmt.Sprintf("INSERT INTO waits_attr VALUES (%d, 'row-%d')", i, i))
		if err != nil {
			return 0, err
		}
		if elapsed := time.Since(start); elapsed > 0 {
			ratios = append(ratios, 100*float64(res.WaitTotal)/float64(elapsed))
		}
	}
	return median(ratios), nil
}
