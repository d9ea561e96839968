package experiments

import (
	"fmt"
	"time"

	"socrates/internal/cdb"
	"socrates/internal/cluster"
	"socrates/internal/hadr"
	"socrates/internal/page"
	"socrates/internal/simdisk"
)

// table1 measures the goal metrics of the paper's Table 1 on both stacks
// ("Today" = HADR): up/downsize cost scaling, storage copies, recovery
// time, commit latency, and log throughput. (Max DB size and availability
// are design properties, reported from configuration.)
func table1(o Options) (report, error) {
	o = o.defaults()
	short := o
	if short.Measure > time.Second {
		short.Measure = time.Second
	}
	rep := report{header: []string{"Metric", "Today (HADR)", "Socrates"}}

	// --- Up/downsize: O(data) reseed vs O(1) reattach ---
	sizes := []int{o.SF / 4, o.SF}
	var seed, scale [2]time.Duration
	for i, sf := range sizes {
		var err error
		if seed[i], err = hadrReseedCost(i, sf); err != nil {
			return report{}, err
		}
		if scale[i], err = socratesScaleCost(i, sf); err != nil {
			return report{}, err
		}
	}
	rep.rowf("Upsize/downsize\tO(data): %.0fms @%d rows -> %.0fms @%d rows\tO(1): %.0fms @%d rows -> %.0fms @%d rows",
		ms(seed[0]), sizes[0], ms(seed[1]), sizes[1], ms(scale[0]), sizes[0], ms(scale[1]), sizes[1])
	rep.value("hadr-reseed-small-ms", ms(seed[0]))
	rep.value("hadr-reseed-large-ms", ms(seed[1]))
	rep.value("socrates-scale-small-ms", ms(scale[0]))
	rep.value("socrates-scale-large-ms", ms(scale[1]))

	// --- Storage impact: copies of the database ---
	hadrCopies, socCopies, err := storageCopies(o.SF / 2)
	if err != nil {
		return report{}, err
	}
	rep.rowf("Storage impact\t%.1fx copies (+log backup)\t%.1fx copies (+snapshots)", hadrCopies, socCopies)
	rep.value("hadr-copies", hadrCopies)
	rep.value("socrates-copies", socCopies)

	// --- Commit latency: HADR quorum vs Socrates landing zone ---
	var hadrLat time.Duration
	err = withHADR("t1-hadr-lat", 8, 0, hadrLagBudget, short.SF/4, func(h *hadr.Cluster, w *cdb.Workload) error {
		m := driveCDB(h.Primary().Engine(), w, cdb.UpdateLiteMix, 0, h.PrimaryMeter, short.window(1))
		hadrLat = m.WriteLatency.Median()
		return nil
	})
	if err != nil {
		return report{}, err
	}
	lz, err := measureTable6(short)
	if err != nil {
		return report{}, err
	}
	rep.rowf("Commit latency\t%.2fms (AZ quorum)\t%.2fms on DD (%.2fms on XIO)",
		ms(hadrLat), ms(lz[1].Median), ms(lz[0].Median))
	rep.value("hadr-commit-ms", ms(hadrLat))
	rep.value("socrates-dd-commit-ms", ms(lz[1].Median))
	rep.value("socrates-xio-commit-ms", ms(lz[0].Median))

	// --- Log throughput (the Table 5 result, summarized) ---
	hadrLog, socLog, err := measureTable5(short)
	if err != nil {
		return report{}, err
	}
	rep.rowf("Log throughput\t%.1f MB/s (backup-throttled)\t%.1f MB/s", hadrLog.logMBps, socLog.logMBps)
	rep.value("hadr-MB/s", hadrLog.logMBps)
	rep.value("socrates-MB/s", socLog.logMBps)

	// --- Recovery: failover to availability ---
	hadrRec, socRec, err := recoveryTimes(o.SF / 2)
	if err != nil {
		return report{}, err
	}
	rep.rowf("Recovery\tO(1): %.0fms\tO(1): %.0fms", ms(hadrRec), ms(socRec))
	rep.value("hadr-recovery-ms", ms(hadrRec))
	rep.value("socrates-recovery-ms", ms(socRec))

	// Design properties (not measured).
	rep.rowf("Max DB size\tbounded by one machine\tbounded by page-server count (grows on demand)")
	return rep, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// hadrReseedCost measures HADR's add-replica time at one database size.
func hadrReseedCost(i, sf int) (elapsed time.Duration, err error) {
	err = withHADR(fmt.Sprintf("t1-hadr-seed%d", i), 8, 0, hadrLagBudget, sf, func(h *hadr.Cluster, _ *cdb.Workload) error {
		_, _, elapsed, err = h.SeedNewReplica(fmt.Sprintf("t1-new-%d", i))
		return err
	})
	return elapsed, err
}

// socratesScaleCost measures Socrates compute scale-up time at one size.
func socratesScaleCost(i, sf int) (elapsed time.Duration, err error) {
	err = withSocrates(fmt.Sprintf("t1-soc-scale%d", i), simdisk.DirectDrive, 8, 64, 128, sf, func(s *cluster.Cluster, _ *cdb.Workload) error {
		if err := s.WaitForCatchUp(30 * time.Second); err != nil {
			return err
		}
		elapsed, err = s.ScaleCompute(128, 256)
		return err
	})
	return elapsed, err
}

// storageCopies measures how many copies of the database each architecture
// stores in its fast+durable tiers.
func storageCopies(sf int) (hadrCopies, socCopies float64, err error) {
	err = withHADR("t1-hadr-store", 8, 0, hadrLagBudget, sf, func(h *hadr.Cluster, _ *cdb.Workload) error {
		end := h.Writer().HardenedEnd()
		for _, sec := range h.Secondaries() {
			sec.WaitApplied(end, 10*time.Second)
		}
		if primBytes := h.Primary().DataBytes(); primBytes > 0 {
			hadrCopies = float64(h.TotalDataBytes()) / float64(primBytes)
		}
		return nil
	})
	if err != nil {
		return 0, 0, err
	}
	err = withSocrates("t1-soc-store", simdisk.DirectDrive, 8, 64, 0, sf, func(s *cluster.Cluster, _ *cdb.Workload) error {
		if err := s.WaitForCatchUp(30 * time.Second); err != nil {
			return err
		}
		// Page servers ≈ one copy; the XStore checkpoint ≈ one copy. The log
		// archive is excluded from both (it is backup, like HADR's).
		var stored int64
		for _, srv := range s.PageServers() {
			if _, err := srv.FlushForBackup(); err != nil {
				return err
			}
			stored += int64(srv.Cache().Len()) * page.Size
		}
		for _, name := range s.Store.List("t1-soc-store/page/") {
			if sz, err := s.Store.Size(name); err == nil {
				stored += sz
			}
		}
		if dbBytes := int64(s.Primary().Engine.AllocatedPages()) * page.Size; dbBytes > 0 {
			socCopies = float64(stored) / float64(dbBytes)
		}
		return nil
	})
	return hadrCopies, socCopies, err
}

// recoveryTimes measures failover-to-availability on both stacks.
func recoveryTimes(sf int) (hadrRec, socRec time.Duration, err error) {
	err = withHADR("t1-hadr-rec", 8, 0, hadrLagBudget, sf, func(h *hadr.Cluster, _ *cdb.Workload) error {
		_, hadrRec, err = h.Failover()
		return err
	})
	if err != nil {
		return 0, 0, err
	}
	err = withSocrates("t1-soc-rec", simdisk.DirectDrive, 8, 64, 128, sf, func(s *cluster.Cluster, _ *cdb.Workload) error {
		if err := s.WaitForCatchUp(30 * time.Second); err != nil {
			return err
		}
		_, socRec, err = s.Failover()
		return err
	})
	return hadrRec, socRec, err
}
