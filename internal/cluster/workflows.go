package cluster

import (
	"context"
	"errors"
	"fmt"
	"time"

	"socrates/internal/compute"
	"socrates/internal/engine"
	"socrates/internal/fcb"
	"socrates/internal/obs"
	"socrates/internal/page"
	"socrates/internal/pageserver"
	"socrates/internal/recovery"
	"socrates/internal/socerr"
)

// ErrNoBackup reports a restore from an unknown backup.
var ErrNoBackup = errors.New("cluster: no such backup")

// ErrRestoreBeforeBackup reports a point-in-time restore whose target LSN
// lies below the backup's snapshot LSN. The snapshot's page images already
// contain every write below that LSN — there is no log-undo, so the
// requested point is unreachable from this backup; the caller needs an
// earlier backup. (Without this guard the replay loop would silently skip
// and hand back an image that is newer than the requested point.)
var ErrRestoreBeforeBackup = errors.New("cluster: restore target below backup snapshot LSN")

// AddSecondary starts a new read-scale secondary attached at the current
// hardened log position. The operation is O(1): no data is copied — the
// node's cache fills lazily via GetPage@LSN (§4.1.2).
func (c *Cluster) AddSecondary(name string) (*compute.Secondary, error) {
	c.mu.Lock()
	if _, dup := c.secondaries[name]; dup {
		c.mu.Unlock()
		return nil, fmt.Errorf("cluster: secondary %q exists", name)
	}
	c.mu.Unlock()

	// The primary's harden reports are asynchronous: promote the XLOG
	// watermark to the landing zone's durable end first, so the secondary
	// starts with every commit acknowledged before it existed visible.
	c.XLOG.ReportHardened(context.Background(), c.LZ.HardenedEnd())
	sec, err := compute.NewSecondary(compute.SecondaryConfig{
		Name:          name,
		XLOG:          c.xlogClient(),
		Resolve:       c.resolve,
		CacheMemPages: c.cfg.ComputeMemPages,
		CacheSSDPages: c.cfg.ComputeSSDPages,
		CacheSSD:      c.dev(c.cfg.LocalSSD),
		CacheMeta:     c.dev(c.cfg.LocalSSD),
		StartLSN:      c.XLOG.HardenedEnd(),
		StartTS:       c.XLOG.MaxCommitTS(),
		Obs:           c.Plane,
	})
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.secondaries[name] = sec
	c.mu.Unlock()
	return sec, nil
}

// WaitForCatchUp blocks until every page server and secondary has applied
// the log through the current hardened end. Each node exposes a
// condition-variable wait on its apply watermark, so this blocks on apply
// signals instead of polling.
func (c *Cluster) WaitForCatchUp(timeout time.Duration) error {
	target := c.LZ.HardenedEnd()
	deadline := time.Now().Add(timeout)
	for _, srv := range c.PageServers() {
		if !srv.WaitApplied(target, time.Until(deadline)) {
			return socerr.Timeoutf("cluster: catch-up to %d timed out: page server at %d",
				target, srv.AppliedLSN())
		}
	}
	c.mu.Lock()
	secs := make([]*compute.Secondary, 0, len(c.secondaries))
	for _, s := range c.secondaries {
		secs = append(secs, s)
	}
	c.mu.Unlock()
	for _, s := range secs {
		if !s.WaitApplied(target, time.Until(deadline)) {
			return socerr.Timeoutf("cluster: catch-up to %d timed out: %s at %d",
				target, s.Name(), s.AppliedLSN())
		}
	}
	return nil
}

// RemoveSecondary stops and forgets a secondary. An unknown name surfaces
// as socerr.ErrNoSecondary under errors.Is.
func (c *Cluster) RemoveSecondary(name string) error {
	c.mu.Lock()
	sec, ok := c.secondaries[name]
	delete(c.secondaries, name)
	c.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q", socerr.ErrNoSecondary, name)
	}
	sec.Stop()
	return nil
}

// Failover crashes the primary and attaches a fresh one. Because compute
// nodes are stateless (§4.2), recovery is O(1) in database size: discover
// the hardened log end from the landing zone, re-report it to XLOG, restore
// visibility from the max hardened commit timestamp, and start serving —
// no undo, no page copying. Returns the new primary and the time to
// availability.
func (c *Cluster) Failover() (*compute.Primary, time.Duration, error) {
	c.mu.Lock()
	old := c.primary
	c.mu.Unlock()
	if old != nil {
		// The crashed node stays visible until its replacement is
		// installed; its commits fail fast (closed log writer), which is
		// what clients see during a real failover window.
		old.Crash()
	}

	start := time.Now()
	hardenedEnd := c.LZ.HardenedEnd()
	c.Flight.Record(obs.TierCompute, "failover.start", uint64(hardenedEnd), 0,
		"primary crashed; reattaching at hardened end")
	// Install a new producer epoch at the XLOG service. This (a) purges
	// the dead primary's speculative pending blocks and rejects its
	// in-flight feeds — their LSNs are about to be reissued — and (b)
	// re-derives the promotion watermark from the landing zone itself,
	// gap-filling harden reports the crashed node never delivered.
	epoch := c.XLOG.BeginEpoch(context.Background(), hardenedEnd)
	c.mu.Lock()
	c.epoch = epoch
	c.mu.Unlock()

	p, err := compute.NewPrimary(c.primaryConfig(false))
	if err != nil {
		c.Flight.Record(obs.TierCompute, "failover.error", uint64(hardenedEnd),
			time.Since(start), err.Error())
		return nil, 0, err
	}
	c.mu.Lock()
	c.primary = p
	c.mu.Unlock()
	c.Flight.Record(obs.TierCompute, "failover.done", uint64(hardenedEnd),
		time.Since(start), "new primary serving")
	return p, time.Since(start), nil
}

// ScaleCompute replaces the primary with one of a different cache size —
// the O(1) up/downsize of Table 1: no data moves; the new node attaches to
// the same page servers. Returns the time to availability.
func (c *Cluster) ScaleCompute(memPages, ssdPages int) (time.Duration, error) {
	c.mu.Lock()
	c.cfg.ComputeMemPages = memPages
	c.cfg.ComputeSSDPages = ssdPages
	c.mu.Unlock()
	_, d, err := c.Failover()
	return d, err
}

// AddPageServerReplica starts a hot replica of the partition's server: it
// seeds asynchronously from the XStore checkpoint while already serving,
// and joins the replica selector so reads fail over to it (§6).
func (c *Cluster) AddPageServerReplica(part page.PartitionID) error {
	// Make sure the checkpoint covers the current state so seeding is
	// complete.
	resume, err := c.flushPartition(part)
	if err != nil {
		return err
	}
	_, err = c.startPageServer(part, 0, 0, true, resume)
	return err
}

// SplitPageServer replaces the single server of a partition with two
// servers covering its halves — finer sharding for smaller
// mean-time-to-recovery (§6). Existing servers of the partition are
// retired once the halves are live.
func (c *Cluster) SplitPageServer(part page.PartitionID) error {
	resume, err := c.flushPartition(part)
	if err != nil {
		return err
	}

	var lo, hi page.ID
	found := false
	c.mu.Lock()
	for _, r := range c.ranges {
		// The partition's current (unsplit) range.
		if c.pt.PartitionOf(r.lo) == part {
			if !found || r.lo < lo {
				lo = r.lo
			}
			if !found || r.hi > hi {
				hi = r.hi
			}
			found = true
		}
	}
	c.mu.Unlock()
	if !found {
		return fmt.Errorf("cluster: partition %d has no servers", part)
	}
	mid := lo + (hi-lo)/2
	if mid == lo || mid == hi {
		return fmt.Errorf("cluster: partition %d too small to split", part)
	}
	if _, err := c.startPageServer(part, lo, mid, true, resume); err != nil {
		return err
	}
	if _, err := c.startPageServer(part, mid, hi, true, resume); err != nil {
		return err
	}
	c.retireRanges(part, lo, hi, mid)
	return nil
}

// retireRanges swaps the routing table to the split halves and stops the
// old full-range servers.
func (c *Cluster) retireRanges(part page.PartitionID, lo, hi, mid page.ID) {
	c.mu.Lock()
	var retired []*pageserver.Server
	kept := c.ranges[:0]
	for _, r := range c.ranges {
		if r.lo == lo && r.hi == hi {
			// Old full-range entry: retire its servers.
			for _, srv := range c.servers {
				slo, shi := srv.Range()
				if slo == lo && shi == hi {
					retired = append(retired, srv)
				}
			}
			delete(c.selectors, r.addr)
			continue
		}
		kept = append(kept, r)
	}
	c.ranges = kept
	live := c.servers[:0]
	for _, srv := range c.servers {
		isRetired := false
		for _, v := range retired {
			if v == srv {
				isRetired = true
				break
			}
		}
		if !isRetired {
			live = append(live, srv)
		}
	}
	c.servers = live
	c.mu.Unlock()
	for _, srv := range retired {
		srv.Stop()
	}
}

// flushPartition forces a full checkpoint on every server of the partition
// and returns the log position a seeded newcomer resumes from: the lowest
// checkpoint LSN, below which everything is in XStore. The servers' applied
// LSN is not such a point — apply keeps running after the flush, and what
// it applies then is in no checkpoint yet. A partition with no live server
// resumes from the start of the log (redo over the checkpoint is
// idempotent).
func (c *Cluster) flushPartition(part page.PartitionID) (page.LSN, error) {
	resume, found, err := c.flushServers(func(srv *pageserver.Server) bool { return srv.Partition() == part })
	if err == nil && !found {
		resume = 1
	}
	return resume, err
}

// flushServers forces a full checkpoint on each page server flush picks and
// returns the lowest checkpoint LSN; found is false when it picked none.
func (c *Cluster) flushServers(flush func(*pageserver.Server) bool) (lowest page.LSN, found bool, err error) {
	for _, srv := range c.PageServers() {
		if !flush(srv) {
			continue
		}
		lsn, err := srv.FlushForBackup()
		if err != nil {
			return 0, false, err
		}
		if !found || lsn.Before(lowest) {
			lowest, found = lsn, true
		}
	}
	return lowest, found, nil
}

// Backup takes a named, constant-time backup: every page server flushes its
// dirty set, then the whole database becomes an XStore snapshot — a
// metadata pointer, no data movement (§3.5, §4.7). The hardened log
// position and visibility timestamp at the moment of the snapshot are
// recorded for restore.
func (c *Cluster) Backup(name string) error {
	resume, _, err := c.flushServers(func(*pageserver.Server) bool { return true })
	if err != nil {
		return err
	}
	if err := c.Store.Snapshot(c.cfg.Name + "/" + name); err != nil {
		return err
	}
	var ts uint64
	if p := c.Primary(); p != nil {
		ts = p.Engine.Clock().Visible()
	}
	c.mu.Lock()
	c.backups[name] = backupInfo{lsn: resume, ts: ts}
	c.mu.Unlock()
	return nil
}

// PointInTimeRestore materializes the database as of targetLSN from a named
// backup: the snapshot's page blobs are restored (a constant-time metadata
// copy in XStore), and the log range [backupLSN, targetLSN) is replayed on
// top — the §4.7 PITR workflow. targetLSN of zero means "end of log". It
// returns a read-only engine over the restored image and the visibility
// timestamp it was restored to. A cancelled ctx aborts the log replay
// between pulls; a target beyond what XLOG can serve fails the restore.
func (c *Cluster) PointInTimeRestore(ctx context.Context, backup string, targetLSN page.LSN) (*engine.Engine, uint64, error) {
	c.mu.Lock()
	info, ok := c.backups[backup]
	c.mu.Unlock()
	if !ok {
		return nil, 0, fmt.Errorf("%w: %q", ErrNoBackup, backup)
	}
	if targetLSN != 0 && targetLSN.Before(info.lsn) {
		return nil, 0, fmt.Errorf("%w: target %d < backup snapshot %d (%q)",
			ErrRestoreBeforeBackup, targetLSN, info.lsn, backup)
	}
	snapName := c.cfg.Name + "/" + backup
	restorePrefix := "restore/" + backup + "/"
	if err := c.Store.Restore(snapName, restorePrefix); err != nil {
		return nil, 0, err
	}

	// Attach the restored page blobs (no copying beyond reading them into
	// the scratch engine — a real deployment attaches them to fresh page
	// servers; see DESIGN.md).
	pages := fcb.NewMemFile()
	pagePrefix := restorePrefix + c.cfg.Name + "/page/"
	for _, blob := range c.Store.List(pagePrefix) {
		buf, err := c.Store.Get(blob)
		if err != nil {
			return nil, 0, err
		}
		pg, err := page.Decode(buf)
		if err != nil {
			return nil, 0, err
		}
		if err := pages.Write(pg); err != nil {
			return nil, 0, err
		}
	}

	// Replay the log range from the backup position to the target — the
	// cost of a PITR is exactly this bounded range, never the database
	// size (§4.7). The primary's harden reports are asynchronous, so first
	// promote the XLOG watermark to the landing zone's durable end (a
	// synchronous gap-fill) — the restore must see every hardened block up
	// to its target.
	c.XLOG.ReportHardened(ctx, c.LZ.HardenedEnd())
	if targetLSN == 0 {
		targetLSN = c.XLOG.HardenedEnd()
	}
	replayer := recovery.NewReplayer(recovery.Restore{PageFile: pages}, info.lsn)
	reached, err := replayer.ReplayRange(ctx, c.XLOG, targetLSN)
	if err != nil {
		return nil, 0, err
	}
	if reached.Before(targetLSN) {
		return nil, 0, fmt.Errorf("cluster: restore replayed the log to LSN %d, short of target %d", reached, targetLSN)
	}

	eng, err := engine.Open(engine.Config{Pages: pages, ReadOnly: true})
	if err != nil {
		return nil, 0, err
	}
	// Visibility: everything committed by the backup instant plus whatever
	// the replay added. (The replay range can legitimately be empty when
	// the checkpoint had already applied through the target.)
	visible := replayer.Visible()
	if info.ts > visible {
		visible = info.ts
	}
	eng.Clock().Publish(visible)
	return eng, visible, nil
}
