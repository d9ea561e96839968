// Package cluster assembles and orchestrates complete Socrates deployments:
// the four tiers (compute, XLOG, page servers, XStore) wired over an RBIO
// fabric, plus the distributed workflows of §5 and §6 — primary failover,
// O(1) scale-up, adding secondaries and page-server replicas, splitting a
// partition into finer shards, constant-time backup via XStore snapshots,
// and point-in-time restore from a snapshot set plus a log range.
package cluster

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"socrates/internal/compute"
	"socrates/internal/metrics"
	"socrates/internal/obs"
	"socrates/internal/page"
	"socrates/internal/pageserver"
	"socrates/internal/rbio"
	"socrates/internal/simdisk"
	"socrates/internal/xlog"
	"socrates/internal/xstore"
)

// lzDevices and lzQuorum fix landing-zone replication: three devices, a
// write durable on two.
const lzDevices, lzQuorum = 3, 2

// Config describes a deployment.
type Config struct {
	// Name is the database name; it prefixes blob names and RBIO addresses.
	Name string
	// Secondaries is the initial secondary compute node count.
	Secondaries int
	// PageServers is the initial partition count (each gets one server).
	// Zero means one server covering the whole database.
	PageServers int
	// PagesPerPartition sizes partitions (the paper's 128 GB, scaled).
	// Required when PageServers > 1.
	PagesPerPartition uint64
	// LZProfile is the landing-zone device class (default simdisk.XIO; the
	// Appendix A experiments swap in simdisk.DirectDrive — no code change).
	// All lzDevices (3) replicas are of this class; a write needs lzQuorum (2).
	LZProfile simdisk.Profile
	// LZCapacity bounds the landing-zone ring (default 8 MiB).
	LZCapacity int64
	// XStore overrides the simulated XStore account configuration.
	XStore xstore.Config
	// Net is the RBIO fabric (default: a fresh LAN-latency network).
	Net *rbio.Network
	// ComputeMemPages / ComputeSSDPages size compute-node caches.
	ComputeMemPages, ComputeSSDPages int
	// PSMemPages sizes page-server memory tiers.
	PSMemPages int
	// PSPullBytes bounds one page-server log pull batch.
	PSPullBytes int
	// PrimaryCores / node core counts for the simulated CPU meters.
	PrimaryCores int
	// CheckpointEvery is how often each page server evaluates its
	// checkpoint policy (pageserver.Config.CheckpointEvery).
	CheckpointEvery time.Duration
	// LocalSSD is the device class for node-local caches (default
	// simdisk.LocalSSD; tests use simdisk.Instant).
	LocalSSD simdisk.Profile
	// watchdog tunes the lag/stall watchdog (zero values take the obs
	// defaults: 25ms ticks, 50k-LSN lag threshold, 8-tick stall window).
	watchdog obs.WatchdogConfig
	// Seed, when nonzero, makes the entire deployment reproducible from
	// one integer: every simdisk device (LZ replicas, node-local caches,
	// the XStore media) gets an independent jitter stream derived from it
	// via simdisk.MixSeed, and the RBIO fabric's jitter/loss/reorder RNG
	// is re-seeded too. Zero keeps the historical fixed defaults.
	Seed int64
}

func (c *Config) applyDefaults() {
	if c.Name == "" {
		c.Name = "db"
	}
	if c.LZProfile.Name == "" {
		c.LZProfile = simdisk.XIO
	}
	if c.LZCapacity == 0 {
		c.LZCapacity = 8 << 20
	}
	if c.ComputeMemPages == 0 {
		c.ComputeMemPages = 256
	}
	if c.PSMemPages == 0 {
		c.PSMemPages = 64
	}
	if c.PrimaryCores == 0 {
		c.PrimaryCores = 8
	}
	if c.PageServers == 0 {
		c.PageServers = 1
	}
	if c.LocalSSD.Name == "" {
		c.LocalSSD = simdisk.LocalSSD
	}
}

// Cluster is a running deployment.
type Cluster struct {
	cfg Config

	Net   *rbio.Network
	Store *xstore.Store
	LZ    *xlog.LandingZone
	XLOG  *xlog.Service

	// lzVol is the replicated volume under the landing zone (failure
	// injection in tests).
	lzVol simdisk.Volume

	// PrimaryMeter is the primary node's simulated CPU meter (charged by
	// the engine and by landing-zone device I/O).
	PrimaryMeter *metrics.CPUMeter

	// Plane is the deployment's observability, built by obs.NewPlane and
	// shared by every node: the tracer, the metrics registry, the LSN
	// ladder, the flight recorder, the wait-event accounting table and
	// the watchdog, whose
	// first trip freezes the flight dump Watchdog.TripDump returns.
	obs.Plane

	// seedLane hands out device seed lanes when cfg.Seed != 0, so every
	// simdisk device of the deployment gets an independent but
	// deterministic jitter stream (creation order is deterministic given
	// a deterministic workflow schedule).
	seedLane atomic.Int64

	// rpc instruments every inter-tier client of the deployment.
	rpc *rbio.Metrics

	mu          sync.Mutex
	pt          page.Partitioning
	epoch       uint64 // current producer epoch (bumped by Failover)
	primary     *compute.Primary
	secondaries map[string]*compute.Secondary
	servers     []*pageserver.Server // all live page servers
	serverAddrs map[*pageserver.Server]string
	selectors   map[string]*rbio.Selector
	ranges      []serverRange
	psSeq       int
	backups     map[string]backupInfo
}

type serverRange struct {
	lo, hi page.ID
	addr   string
}

type backupInfo struct {
	lsn page.LSN
	ts  uint64
}

// New builds, bootstraps, and starts a deployment.
func New(cfg Config) (*Cluster, error) {
	cfg.applyDefaults()
	if cfg.PageServers > 1 && cfg.PagesPerPartition == 0 {
		return nil, errors.New("cluster: PagesPerPartition required with multiple page servers")
	}
	c := &Cluster{
		cfg:         cfg,
		Net:         cfg.Net,
		Plane:       obs.NewPlane(cfg.watchdog),
		secondaries: make(map[string]*compute.Secondary),
		serverAddrs: make(map[*pageserver.Server]string),
		selectors:   make(map[string]*rbio.Selector),
		backups:     make(map[string]backupInfo),
		pt:          page.Partitioning{PagesPerPartition: cfg.PagesPerPartition},
	}
	c.rpc = rbio.NewMetrics(c.Plane)
	c.Watchdog.Start()
	if c.Net == nil {
		c.Net = rbio.NewNetwork()
	}
	if cfg.Seed != 0 {
		// One root seed pins the whole deployment: the fabric's jitter
		// stream plus every device lane below.
		c.Net.SetSeed(simdisk.MixSeed(cfg.Seed, -1))
		if cfg.XStore.Seed == 0 {
			cfg.XStore.Seed = simdisk.MixSeed(cfg.Seed, -2)
		}
	}
	cfg.XStore.Obs = c.Plane
	c.Store = xstore.New(cfg.XStore)
	c.PrimaryMeter = metrics.NewCPUMeter(cfg.PrimaryCores)

	// Landing zone: quorum-replicated fast storage; the primary's meter is
	// charged for LZ I/O issue cost (the Table 7 effect).
	lzSeed := int64(0)
	if cfg.Seed != 0 {
		lzSeed = simdisk.MixSeed(cfg.Seed, -3)
	}
	lzVol, err := simdisk.NewReplicatedSeeded(cfg.LZProfile, lzDevices, lzQuorum,
		lzSeed, simdisk.WithCPU(c.PrimaryMeter), simdisk.WithWaits(c.Waits.Tier(obs.TierXLOG)))
	if err != nil {
		return nil, err
	}
	c.lzVol = lzVol
	c.LZ, err = xlog.NewLandingZone(lzVol, cfg.LZCapacity)
	if err != nil {
		return nil, err
	}
	c.XLOG, err = xlog.New(xlog.Config{
		LZ: c.LZ, LT: c.Store, LTBlob: cfg.Name + "/lt",
		CacheDevice: c.dev(cfg.LocalSSD, simdisk.WithWaits(c.Waits.Tier(obs.TierXLOG))),
		Obs:         c.Plane,
	})
	if err != nil {
		return nil, err
	}
	c.Net.Serve(c.addr("xlog"), c.XLOG.Handler())

	// Page servers, one per partition.
	for p := 0; p < cfg.PageServers; p++ {
		if _, err := c.startPageServer(page.PartitionID(p), 0, 0, false, 1); err != nil {
			return nil, err
		}
	}

	// Primary bootstraps the database.
	primary, err := compute.NewPrimary(c.primaryConfig(true))
	if err != nil {
		return nil, err
	}
	c.primary = primary

	// Initial secondaries.
	for i := 0; i < cfg.Secondaries; i++ {
		if _, err := c.AddSecondary(fmt.Sprintf("sec-%d", i)); err != nil {
			return nil, err
		}
	}
	return c, nil
}

func (c *Cluster) addr(node string) string { return c.cfg.Name + "/" + node }

// dev builds a node-local simdisk device. With Config.Seed set, each device
// draws its jitter stream from its own lane of the root seed, so a
// deployment whose workflows run in a deterministic order is reproducible
// end to end from one integer.
func (c *Cluster) dev(p simdisk.Profile, opts ...simdisk.Option) *simdisk.Device {
	if c.cfg.Seed != 0 {
		lane := c.seedLane.Add(1)
		opts = append(opts, simdisk.WithSeed(simdisk.MixSeed(c.cfg.Seed, lane)))
	}
	return simdisk.New(p, opts...)
}

// client builds the inter-tier client to addr over the deployment's
// fabric: every one gets the per-destination in-flight cap and bounded
// queue, and all share the deployment's fabric instruments.
func (c *Cluster) client(addr string) *rbio.Client {
	return rbio.NewClient(c.Net.Dial(addr), rbio.WithMetrics(c.rpc))
}

// SeverMuxConns tears every inter-tier call in flight on the fabric (chaos
// injection: a fabric-wide partition). Torn calls fail with
// rbio.ErrUnavailable and go back through the client's retry; it reports
// how many it tore.
func (c *Cluster) SeverMuxConns() int {
	n := c.Net.Sever()
	c.Flight.Record("netmux", "sever", 0, 0, fmt.Sprintf("%d calls torn", n))
	return n
}

func (c *Cluster) xlogClient() *rbio.Client {
	return c.client(c.addr("xlog"))
}

// resolve maps a page to the selector of the replica set serving it. When
// the database grows past the provisioned partitions, a page server for the
// new partition is started on demand — the §4.1.1 storage-allocation
// property: growth never moves existing data.
func (c *Cluster) resolve(id page.ID) (*rbio.Selector, error) {
	if sel := c.lookupRange(id); sel != nil {
		return sel, nil
	}
	if c.cfg.PagesPerPartition == 0 {
		return nil, fmt.Errorf("cluster: no page server covers page %d", id)
	}
	part := c.pt.PartitionOf(id)
	if _, err := c.startPageServer(part, 0, 0, false, 1); err != nil {
		return nil, fmt.Errorf("cluster: growing to partition %d: %w", part, err)
	}
	if sel := c.lookupRange(id); sel != nil {
		return sel, nil
	}
	return nil, fmt.Errorf("cluster: no page server covers page %d", id)
}

func (c *Cluster) lookupRange(id page.ID) *rbio.Selector {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, r := range c.ranges {
		if id >= r.lo && id < r.hi {
			return c.selectors[r.addr]
		}
	}
	return nil
}

func (c *Cluster) primaryConfig(bootstrap bool) compute.PrimaryConfig {
	c.mu.Lock()
	epoch := c.epoch
	c.mu.Unlock()
	return compute.PrimaryConfig{
		LZ:            c.LZ,
		XLOG:          c.xlogClient(),
		Epoch:         epoch,
		Resolve:       c.resolve,
		Partitioning:  c.pt,
		CacheMemPages: c.cfg.ComputeMemPages,
		CacheSSDPages: c.cfg.ComputeSSDPages,
		CacheSSD:      c.dev(c.cfg.LocalSSD, simdisk.WithCPU(c.PrimaryMeter), simdisk.WithWaits(c.Waits.Tier(obs.TierCompute))),
		CacheMeta:     c.dev(c.cfg.LocalSSD),
		Meter:         c.PrimaryMeter,
		Bootstrap:     bootstrap,
		Obs:           c.Plane,
	}
}

// startPageServer launches one page server. When rangeHi > 0 the server
// covers [rangeLo, rangeHi) of the partition; seed loads the cache from
// XStore; startLSN overrides the apply start.
func (c *Cluster) startPageServer(part page.PartitionID, rangeLo, rangeHi page.ID,
	seed bool, startLSN page.LSN) (*pageserver.Server, error) {
	c.mu.Lock()
	c.psSeq++
	name := fmt.Sprintf("ps-%d-p%d", c.psSeq, part)
	c.mu.Unlock()

	srv, err := pageserver.New(pageserver.Config{
		Partition:       part,
		Partitioning:    c.pt,
		RangeLo:         rangeLo,
		RangeHi:         rangeHi,
		Name:            name,
		XLOG:            c.xlogClient(),
		Store:           c.Store,
		BlobPrefix:      c.cfg.Name + "/",
		CacheSSD:        c.dev(c.cfg.LocalSSD, simdisk.WithWaits(c.Waits.Tier(obs.TierPageServer))),
		CacheMeta:       c.dev(c.cfg.LocalSSD),
		MemPages:        c.cfg.PSMemPages,
		PullBytes:       c.cfg.PSPullBytes,
		StartLSN:        startLSN,
		Seed:            seed,
		CheckpointEvery: c.cfg.CheckpointEvery,
		Obs:             c.Plane,
	})
	if err != nil {
		return nil, err
	}
	addr := c.addr(name)
	c.Net.Serve(addr, srv.Handler())

	lo, hi := srv.Range()
	// Build the client (it dials the fabric) outside the critical section;
	// deadlocklint flags fabric work under Cluster.mu.
	client := c.client(addr)
	c.mu.Lock()
	c.servers = append(c.servers, srv)
	c.serverAddrs[srv] = addr
	// A server for an existing range joins that range's selector
	// (replica); a new range gets its own selector.
	joined := false
	for _, r := range c.ranges {
		if r.lo == lo && r.hi == hi {
			c.selectors[r.addr].Add(client)
			joined = true
			break
		}
	}
	if !joined {
		c.selectors[addr] = rbio.NewSelector(client)
		c.ranges = append(c.ranges, serverRange{lo: lo, hi: hi, addr: addr})
	}
	c.mu.Unlock()
	return srv, nil
}

// Primary returns the current primary compute node.
func (c *Cluster) Primary() *compute.Primary {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.primary
}

// Secondary returns a secondary by name.
func (c *Cluster) Secondary(name string) (*compute.Secondary, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s, ok := c.secondaries[name]
	return s, ok
}

// Secondaries lists secondary names.
func (c *Cluster) Secondaries() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	names := make([]string, 0, len(c.secondaries))
	for n := range c.secondaries {
		names = append(names, n)
	}
	return names
}

// PageServers lists the live page servers.
func (c *Cluster) PageServers() []*pageserver.Server {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]*pageserver.Server(nil), c.servers...)
}

// LZReplicas exposes the landing zone's replica devices for failure
// injection (LZ replica outages, quorum-loss windows). Nil when the LZ
// volume is not replicated.
func (c *Cluster) LZReplicas() []*simdisk.Device {
	if r, ok := c.lzVol.(*simdisk.Replicated); ok {
		return r.Replicas()
	}
	return nil
}

// LZVolume exposes the replicated landing-zone volume itself — the
// flexible-quorum bookkeeping (acked copy counts, per-replica missed
// extents, reconciliation) that the chaos oracle audits. Nil when the LZ
// volume is not replicated.
func (c *Cluster) LZVolume() *simdisk.Replicated {
	r, _ := c.lzVol.(*simdisk.Replicated)
	return r
}

// KillPageServer tears a page server down: its RBIO address stops
// resolving, the endpoint leaves its range's replica selector, and the
// server's background loops halt. Reads over the range fail over to the
// surviving replicas (ErrNoPageServer if none remain — the caller is
// killing the last copy). Chaos and failover tests use this to model a
// page-server crash; re-adding is AddPageServerReplica.
func (c *Cluster) KillPageServer(srv *pageserver.Server) error {
	c.mu.Lock()
	addr, ok := c.serverAddrs[srv]
	if !ok {
		c.mu.Unlock()
		return errors.New("cluster: page server not part of this deployment")
	}
	delete(c.serverAddrs, srv)
	live := c.servers[:0]
	for _, s := range c.servers {
		if s != srv {
			live = append(live, s)
		}
	}
	c.servers = live
	lo, hi := srv.Range()
	for _, r := range c.ranges {
		if r.lo == lo && r.hi == hi {
			if sel := c.selectors[r.addr]; sel != nil {
				sel.Remove(addr)
			}
		}
	}
	c.mu.Unlock()
	c.Net.Unserve(addr)
	srv.Stop()
	c.Flight.Record(obs.TierPageServer, "ps.kill", uint64(srv.AppliedLSN()), 0,
		addr+": killed")
	return nil
}

// Close stops every node.
func (c *Cluster) Close() {
	c.mu.Lock()
	primary := c.primary
	secs := make([]*compute.Secondary, 0, len(c.secondaries))
	for _, s := range c.secondaries {
		secs = append(secs, s)
	}
	servers := append([]*pageserver.Server(nil), c.servers...)
	c.mu.Unlock()

	if primary != nil {
		primary.Close()
	}
	for _, s := range secs {
		s.Stop()
	}
	for _, srv := range servers {
		srv.Stop()
	}
	c.XLOG.Close()
	c.Watchdog.Stop()
}
