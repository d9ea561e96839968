package frontdoor

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"socrates/internal/obs"
	"socrates/internal/socerr"
	"socrates/internal/sqlengine"
)

// Options configures a Router.
type Options struct {
	// Placement is the authoritative placement service the router pulls
	// assignments from. Required.
	Placement *Placement
	// Obs is the router tier's observability plane (optional: the zero
	// plane is off). Its tracer roots a "router.exec" frontdoor-tier span
	// over every request, so per-tenant traces nest the compute tier's
	// sql.exec; its registry receives the tenant-labeled series
	// (frontdoor.tenant.<t>.ops/latency/rejects/redirects/wait.<class>).
	Obs obs.Plane
}

// Router is the stateless front door: it resolves a tenant to a host
// through its placement cache, forwards the statement, and turns typed
// redirects into exactly one cache refresh + retry. Routers hold no
// tenant state — any number of them can front the same fleet, and a
// freshly booted router is correct after its first cache miss.
type Router struct {
	placement *Placement
	obs       obs.Plane

	mu      sync.RWMutex
	hosts   map[string]*Host
	cache   map[string]Assignment
	version uint64 // placement version at the last bulk pull
}

// NewRouter builds a router over a placement service.
func NewRouter(o Options) *Router {
	return &Router{
		placement: o.Placement,
		obs:       o.Obs,
		hosts:     make(map[string]*Host),
		cache:     make(map[string]Assignment),
	}
}

// AddHost registers a host (pool) with the router.
func (r *Router) AddHost(h *Host) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.hosts[h.ID()] = h
}

// Host resolves a registered host by ID (nil if unknown).
func (r *Router) Host(id string) *Host {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.hosts[id]
}

// Refresh bulk-pulls the placement snapshot into the cache. Routers
// call it on boot; afterwards the redirect protocol keeps the cache
// honest one tenant at a time, with no gossip and no watch streams.
func (r *Router) Refresh() {
	ver, asgs := r.placement.Snapshot()
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, a := range asgs {
		r.cache[a.Tenant] = a
	}
	r.version = ver
	r.obs.Metrics.Counter("frontdoor.placement.pulls").Inc()
}

// assignment resolves a tenant through the cache; refresh forces a pull
// from the placement service (the redirect path).
func (r *Router) assignment(tenant string, refresh bool) (Assignment, error) {
	if !refresh {
		r.mu.RLock()
		a, ok := r.cache[tenant]
		r.mu.RUnlock()
		if ok {
			return a, nil
		}
	}
	a, ok := r.placement.Lookup(tenant)
	if !ok {
		return Assignment{}, fmt.Errorf("frontdoor: unknown tenant %q", tenant)
	}
	r.mu.Lock()
	r.cache[tenant] = a
	r.mu.Unlock()
	r.obs.Metrics.Counter("frontdoor.placement.pulls").Inc()
	return a, nil
}

// ExecContext is the front-door API: run one statement as a tenant.
// The request is traced under a frontdoor-tier span labeled by tenant,
// admission and redirects are accounted per tenant, and the statement's
// wait breakdown lands on tenant-labeled counters — the observability
// plane sees tenants, not just tiers.
func (r *Router) ExecContext(ctx context.Context, tenant, sqlText string) (*sqlengine.Result, error) {
	ctx, span := r.obs.Tracer.StartSpan(ctx, obs.TierFrontdoor, "router.exec")
	span.SetAttr("tenant", tenant)
	defer span.End()
	start := time.Now()

	res, err := r.route(ctx, tenant, sqlText, true)

	t := "frontdoor.tenant." + tenant
	if err != nil {
		span.SetError(err)
		if errors.Is(err, socerr.ErrAdmission) {
			r.obs.Metrics.Counter(t + ".rejects").Inc()
		}
		return nil, err
	}
	r.obs.Metrics.Counter(t + ".ops").Inc()
	r.obs.Metrics.Histogram(t + ".latency").Observe(time.Since(start))
	for _, w := range res.Waits {
		r.obs.Metrics.Counter(t + ".wait." + w.Class).Add(w.TotalNS)
	}
	return res, nil
}

// AuditContext runs a control-plane statement as a tenant: same routing,
// epoch validation, and redirect handling as ExecContext, but admission
// is not charged and the tenant's data-plane series are not touched —
// operator audits must neither starve behind a noisy tenant's budget
// nor inflate its traffic stats.
func (r *Router) AuditContext(ctx context.Context, tenant, sqlText string) (*sqlengine.Result, error) {
	ctx, span := r.obs.Tracer.StartSpan(ctx, obs.TierFrontdoor, "router.audit")
	span.SetAttr("tenant", tenant)
	defer span.End()
	res, err := r.route(ctx, tenant, sqlText, false)
	if err != nil {
		span.SetError(err)
		return nil, err
	}
	return res, nil
}

// route resolves the tenant and forwards the statement, turning one
// typed redirect into a cache refresh + retry.
func (r *Router) route(ctx context.Context, tenant, sqlText string, metered bool) (*sqlengine.Result, error) {
	var res *sqlengine.Result
	var err error
	for attempt := 0; attempt < 2; attempt++ {
		var asg Assignment
		asg, err = r.assignment(tenant, attempt > 0)
		if err != nil {
			break
		}
		h := r.Host(asg.Cluster)
		if h == nil {
			err = fmt.Errorf("frontdoor: tenant %q placed on unknown cluster %q", tenant, asg.Cluster)
			break
		}
		if metered {
			res, err = h.Exec(ctx, tenant, asg.Epoch, sqlText)
		} else {
			res, err = h.ExecControl(ctx, tenant, asg.Epoch, sqlText)
		}
		if err == nil {
			break
		}
		if errors.Is(err, socerr.ErrTenantMoved) && attempt == 0 {
			// Stale cache: refresh from placement and retry exactly once.
			// A second redirect means the map is churning under us; the
			// caller sees the typed error and retries on its own clock.
			r.obs.Metrics.Counter("frontdoor.tenant." + tenant + ".redirects").Inc()
			continue
		}
		break
	}
	return res, err
}
