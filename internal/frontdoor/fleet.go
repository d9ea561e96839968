package frontdoor

import (
	"fmt"

	"socrates/internal/cluster"
	"socrates/internal/obs"
	"socrates/internal/rbio"
	"socrates/internal/simdisk"
	"socrates/internal/xstore"
)

// FleetConfig describes a front-door deployment: M pooled clusters
// behind one router, N tenants placed round-robin across them.
type FleetConfig struct {
	// Clusters is the number of elastic pools (default 2).
	Clusters int
	// Tenants are placed round-robin across the pools at boot. More can
	// be added later with AddTenant.
	Tenants []string
	// AdmissionRate / AdmissionBurst set every tenant's token-bucket
	// budget in ops/sec (rate 0 = unlimited).
	AdmissionRate  float64
	AdmissionBurst float64
	// Seed drives every pool's simulated-device jitter streams
	// (per-pool lanes, so pools do not share randomness).
	Seed int64
	// Cluster, if set, supplies the base cluster.Config for pool i; the
	// fleet overrides Name and Seed. Nil gets a compact instant-profile
	// deployment (one secondary, one page server).
	Cluster func(i int) cluster.Config
	// Obs is the router tier's observability plane (Options.Obs); the
	// pools keep planes of their own.
	Obs obs.Plane
}

// Fleet is a booted front-door deployment: the placement service, the
// router, and the pooled clusters. It exists so tests, chaos, the bench
// harness, and the CLIs all assemble the tier the same way.
type Fleet struct {
	cfg       FleetConfig
	Placement *Placement
	Router    *Router
	hosts     []*Host
}

// NewFleet boots the pools, places the tenants, and wires the router.
func NewFleet(cfg FleetConfig) (*Fleet, error) {
	if cfg.Clusters <= 0 {
		cfg.Clusters = 2
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	p := NewPlacement()
	f := &Fleet{cfg: cfg, Placement: p}
	f.Router = NewRouter(Options{Placement: p, Obs: cfg.Obs})
	for i := 0; i < cfg.Clusters; i++ {
		var ccfg cluster.Config
		if cfg.Cluster != nil {
			ccfg = cfg.Cluster(i)
		} else {
			ccfg = cluster.Config{
				Net:               rbio.NewInstantNetwork(),
				LZProfile:         simdisk.Instant,
				LocalSSD:          simdisk.Instant,
				XStore:            xstore.Config{Profile: simdisk.Instant},
				LZCapacity:        32 << 20,
				Secondaries:       1,
				PageServers:       1,
				PagesPerPartition: 1 << 20,
			}
		}
		ccfg.Name = hostID(i)
		ccfg.Seed = cfg.Seed*int64(cfg.Clusters) + int64(i)
		c, err := cluster.New(ccfg)
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("frontdoor: pool %d boot: %w", i, err)
		}
		h := NewHost(hostID(i), c, p)
		f.hosts = append(f.hosts, h)
		f.Router.AddHost(h)
	}
	for i, t := range cfg.Tenants {
		f.AddTenant(t, i%cfg.Clusters)
	}
	f.Router.Refresh()
	return f, nil
}

func hostID(i int) string { return fmt.Sprintf("h%d", i) }

// AddTenant places a new tenant on pool i with the fleet's admission
// budget.
func (f *Fleet) AddTenant(tenant string, i int) {
	a := f.Placement.Assign(tenant, hostID(i))
	f.hosts[i].AddTenant(tenant, a.Epoch, f.cfg.AdmissionRate, f.cfg.AdmissionBurst)
}

// SetAdmission replaces one tenant's admission budget at its current
// home (rate ops/sec, burst; rate 0 = unlimited).
func (f *Fleet) SetAdmission(tenant string, rate, burst float64) bool {
	a, ok := f.Placement.Lookup(tenant)
	if !ok {
		return false
	}
	for _, h := range f.hosts {
		if h.ID() == a.Cluster {
			return h.SetAdmission(tenant, rate, burst)
		}
	}
	return false
}

// Hosts lists the fleet's pools.
func (f *Fleet) Hosts() []*Host { return f.hosts }

// Host returns pool i.
func (f *Fleet) Host(i int) *Host { return f.hosts[i] }

// Close tears down every pool.
func (f *Fleet) Close() {
	for _, h := range f.hosts {
		h.Cluster().Close()
	}
}
