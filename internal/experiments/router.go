package experiments

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"socrates/internal/cluster"
	"socrates/internal/frontdoor"
	"socrates/internal/simdisk"
	"socrates/internal/socerr"
	"socrates/internal/xstore"
)

const (
	routerLZMBps        = 2.0  // shared LZ bandwidth cap, MB/s
	routerNoisyBytes    = 1800 // noisy payload per write (MaxCell bounds a row at 2048)
	routerNoisyRate     = 30.0 // admission cap for the noisy tenant, ops/sec
	routerNoisyBurst    = 15.0
	routerNoisyThreads  = 8
	routerVictimThreads = 2
)

// routerFleet boots one elastic pool with a bandwidth-capped landing
// zone shared by both tenants.
func routerFleet(seed int64) (*frontdoor.Fleet, error) {
	lz := simdisk.XIO
	lz.Name = "xio-capped"
	lz.ThroughputMBps = routerLZMBps
	return frontdoor.NewFleet(frontdoor.FleetConfig{
		Clusters: 1,
		Tenants:  []string{"victim", "noisy"},
		Seed:     seed,
		Cluster: func(int) cluster.Config {
			return cluster.Config{
				LZProfile:       lz,
				LZCapacity:      64 << 20,
				ComputeMemPages: 2048,
				PSMemPages:      256,
				PSPullBytes:     1 << 20,
				PrimaryCores:    16,
				CheckpointEvery: 200 * time.Millisecond,
				XStore:          xstore.Config{Profile: simdisk.HDD},
			}
		},
	})
}

type routerArm struct {
	victimOps, noisyOps, rejects int64
	p50, p99                     time.Duration
}

// routerDrive runs one arm: victim threads committing small rows
// closed-loop, noisy threads flooding fat rows (0 threads = quiet arm),
// optionally with the noisy tenant's admission bucket capped. Victim
// latencies are recorded only after warm-up — the device token bucket's
// burst allowance (one second of bandwidth) must be drained before the
// cap is the operative constraint.
func routerDrive(o Options, noisyThreads int, noisyRate float64) (routerArm, error) {
	f, err := routerFleet(10)
	if err != nil {
		return routerArm{}, err
	}
	defer f.Close()
	ctx := context.Background()
	for _, tn := range []string{"victim", "noisy"} {
		if _, err := f.Router.ExecContext(ctx, tn, `CREATE TABLE kv (k TEXT PRIMARY KEY, v TEXT)`); err != nil {
			return routerArm{}, fmt.Errorf("router: %s setup: %w", tn, err)
		}
	}
	if noisyRate > 0 {
		f.SetAdmission("noisy", noisyRate, routerNoisyBurst)
	}

	warmUntil := time.Now().Add(o.WarmUp)
	deadline := time.Now().Add(o.WarmUp + o.Measure)
	fat := make([]byte, routerNoisyBytes)
	for i := range fat {
		fat[i] = 'x'
	}
	payload := string(fat)

	var arm routerArm
	var mu sync.Mutex
	var lats []time.Duration
	var seq atomic.Int64
	var wg sync.WaitGroup
	for t := 0; t < routerVictimThreads; t++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				n := seq.Add(1)
				start := time.Now()
				_, err := f.Router.ExecContext(ctx, "victim",
					fmt.Sprintf(`INSERT INTO kv VALUES ('v%08d', 'y')`, n))
				if err != nil {
					continue
				}
				if start.After(warmUntil) {
					mu.Lock()
					lats = append(lats, time.Since(start))
					arm.victimOps++
					mu.Unlock()
				}
			}
		}()
	}
	for t := 0; t < noisyThreads; t++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				n := seq.Add(1)
				start := time.Now()
				_, err := f.Router.ExecContext(ctx, "noisy",
					fmt.Sprintf(`INSERT INTO kv VALUES ('n%08d', '%s')`, n, payload))
				switch {
				case err == nil:
					if start.After(warmUntil) {
						mu.Lock()
						arm.noisyOps++
						mu.Unlock()
					}
				case errors.Is(err, socerr.ErrAdmission):
					if start.After(warmUntil) {
						mu.Lock()
						arm.rejects++
						mu.Unlock()
					}
					// A rejected client backs off; hot-looping on the door
					// would measure the CPU of rejection, not the pool.
					time.Sleep(2 * time.Millisecond) //socrates:sleep-ok client backoff after admission rejection
				default:
					return
				}
			}
		}()
	}
	wg.Wait()
	if failed, cause := f.Host(0).Cluster().Primary().Engine.Failed(); failed {
		return routerArm{}, fmt.Errorf("router: engine poisoned: %w", cause)
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	if len(lats) == 0 {
		return routerArm{}, fmt.Errorf("router: victim completed zero measured ops")
	}
	arm.p50 = lats[len(lats)/2]
	arm.p99 = lats[len(lats)*99/100]
	return arm, nil
}

// router is the multi-tenant isolation experiment: a victim and a noisy
// neighbor share one elastic pool whose landing zone has a hard bandwidth
// cap, and the noisy tenant floods it with fat writes. Three arms on
// identical deployments: quiet (noisy idle, the victim's baseline), open
// (no admission control — the flood saturates the shared log device and the
// victim's commits queue behind it), and admission (the front door's
// per-tenant token bucket caps the noisy tenant at the door, before its
// writes ever reach the shared log). The headline is the victim's commit
// p99 relative to quiet: >= 2x degraded with the door open, <= 1.25x with
// admission on.
func router(o Options) (Report, error) {
	o = o.defaults()
	// The LZ device's burst allowance is one second of bandwidth; the
	// flood must drain it during warm-up or the cap never bites, and then
	// out-demand the cap for long enough to queue the victim behind it.
	if o.WarmUp < 1200*time.Millisecond {
		o.WarmUp = 1200 * time.Millisecond
	}
	if o.Measure < 800*time.Millisecond {
		o.Measure = 800 * time.Millisecond
	}
	quiet, err := routerDrive(o, 0, 0)
	if err != nil {
		return Report{}, fmt.Errorf("quiet arm: %w", err)
	}
	open, err := routerDrive(o, routerNoisyThreads, 0)
	if err != nil {
		return Report{}, fmt.Errorf("open arm: %w", err)
	}
	admit, err := routerDrive(o, routerNoisyThreads, routerNoisyRate)
	if err != nil {
		return Report{}, fmt.Errorf("admission arm: %w", err)
	}

	rep := Report{Header: []string{"Arm", "Victim ops", "p50 (us)", "p99 (us)", "Noisy ops", "Rejects"}}
	for _, a := range []struct {
		key, label string
		arm        routerArm
	}{
		{"quiet", "quiet", quiet},
		{"open", "no admission", open},
		{"admit", fmt.Sprintf("admission %.0f/s", routerNoisyRate), admit},
	} {
		rep.rowf("%s\t%d\t%d\t%d\t%d\t%d", a.label, a.arm.victimOps,
			a.arm.p50.Microseconds(), a.arm.p99.Microseconds(), a.arm.noisyOps, a.arm.rejects)
		rep.value(a.key+"-p50-us", float64(a.arm.p50.Microseconds()))
		rep.value(a.key+"-p99-us", float64(a.arm.p99.Microseconds()))
		rep.value(a.key+"-ops", float64(a.arm.victimOps))
		rep.value(a.key+"-noisy-ops", float64(a.arm.noisyOps))
	}
	rep.value("admit-rejects", float64(admit.rejects))
	// The damage (open p99 / quiet p99) and the cure (admission / quiet).
	openRatio := float64(open.p99) / float64(quiet.p99)
	admitRatio := float64(admit.p99) / float64(quiet.p99)
	rep.value("open/quiet", openRatio)
	rep.value("admit/quiet", admitRatio)
	rep.notef("Victim vs noisy neighbor, one pool, %.0f MB/s landing zone, %d B noisy writes", routerLZMBps, routerNoisyBytes)
	rep.notef("victim p99 vs quiet: %.2fx flooded (target >= 2x), %.2fx with admission (target <= 1.25x)", openRatio, admitRatio)
	if openRatio < 2 {
		rep.notef("WARNING: the flood did not degrade the victim 2x on this host")
	}
	if admitRatio > 1.25 {
		rep.notef("WARNING: admission control left more than 1.25x degradation on this host")
	}
	// Quantiles over a handful of commits are noise, not a result.
	const minOps = 50
	if quiet.victimOps < minOps || open.victimOps < minOps || admit.victimOps < minOps {
		rep.notef("WARNING: too few victim ops for stable quantiles (floor %d); widen -measure", minOps)
	}
	switch {
	case open.noisyOps == 0:
		rep.Shape = fmt.Errorf("the flood never landed a write; the open arm measured nothing")
	case admit.rejects == 0:
		rep.Shape = fmt.Errorf("admission control rejected nothing; the admission arm measured nothing")
	}
	return rep, nil
}
