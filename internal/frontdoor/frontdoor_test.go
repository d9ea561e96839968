package frontdoor

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"socrates/internal/obs"
	"socrates/internal/socerr"
)

func testFleet(t *testing.T, cfg FleetConfig) *Fleet {
	t.Helper()
	f, err := NewFleet(cfg)
	if err != nil {
		t.Fatalf("fleet boot: %v", err)
	}
	t.Cleanup(f.Close)
	return f
}

func mustExec(t *testing.T, f *Fleet, tenant, sql string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := f.Router.ExecContext(ctx, tenant, sql); err != nil {
		t.Fatalf("tenant %s: %s: %v", tenant, sql, err)
	}
}

func queryOne(t *testing.T, f *Fleet, tenant, sql string) (string, bool) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	res, err := f.Router.ExecContext(ctx, tenant, sql)
	if err != nil {
		t.Fatalf("tenant %s: %s: %v", tenant, sql, err)
	}
	if len(res.Rows) == 0 {
		return "", false
	}
	return res.Rows[0][0].String(), true
}

func TestPlacementEpochs(t *testing.T) {
	p := NewPlacement()
	a := p.Assign("t0", "h0")
	if a.Epoch != 1 || a.Cluster != "h0" {
		t.Fatalf("initial assign = %+v", a)
	}
	if _, err := p.Move("t0", "h1", 1); err == nil {
		t.Fatal("non-advancing epoch accepted")
	}
	m, err := p.Move("t0", "h1", 2)
	if err != nil || m.Epoch != 2 || m.Cluster != "h1" {
		t.Fatalf("move = %+v, %v", m, err)
	}
	if _, err := p.Move("ghost", "h1", 5); err == nil {
		t.Fatal("move of unknown tenant accepted")
	}
	ver, snap := p.Snapshot()
	if ver != 2 || len(snap) != 1 || snap[0].Epoch != 2 {
		t.Fatalf("snapshot = v%d %+v", ver, snap)
	}
}

// Two tenants on the same pool: same table names, fully isolated data,
// served through the one router.
func TestRouterTenantIsolation(t *testing.T) {
	f := testFleet(t, FleetConfig{Clusters: 1, Tenants: []string{"t0", "t1"}})
	for _, tn := range []string{"t0", "t1"} {
		mustExec(t, f, tn, `CREATE TABLE kv (k TEXT PRIMARY KEY, v TEXT)`)
		mustExec(t, f, tn, fmt.Sprintf(`INSERT INTO kv VALUES ('x', 'owned-by-%s')`, tn))
	}
	for _, tn := range []string{"t0", "t1"} {
		got, ok := queryOne(t, f, tn, `SELECT v FROM kv WHERE k = 'x'`)
		if !ok || got != "owned-by-"+tn {
			t.Fatalf("tenant %s read %q, want owned-by-%s", tn, got, tn)
		}
	}
}

func TestRouterUnknownTenant(t *testing.T) {
	f := testFleet(t, FleetConfig{Clusters: 1})
	_, err := f.Router.ExecContext(context.Background(), "nobody", `SELECT 1`)
	if err == nil {
		t.Fatal("unknown tenant served")
	}
}

// A tenant over its token-bucket budget gets ErrAdmission — not
// ErrBackpressure — while a co-resident tenant keeps full service.
func TestAdmissionControl(t *testing.T) {
	f := testFleet(t, FleetConfig{
		Clusters: 1, Tenants: []string{"noisy", "victim"},
		AdmissionRate: 50, AdmissionBurst: 5,
	})
	for _, tn := range []string{"noisy", "victim"} {
		mustExec(t, f, tn, `CREATE TABLE kv (k TEXT PRIMARY KEY, v TEXT)`)
	}
	ctx := context.Background()
	rejected := 0
	for i := 0; i < 40; i++ {
		_, err := f.Router.ExecContext(ctx, "noisy",
			fmt.Sprintf(`INSERT INTO kv VALUES ('n%d', 'v')`, i))
		switch {
		case err == nil:
		case errors.Is(err, socerr.ErrAdmission):
			rejected++
			if errors.Is(err, socerr.ErrBackpressure) {
				t.Fatalf("admission rejection classified as backpressure: %v", err)
			}
		default:
			t.Fatalf("unexpected error: %v", err)
		}
	}
	if rejected == 0 {
		t.Fatal("40 immediate ops at burst 5 saw zero admission rejections")
	}
	// The victim's own bucket is untouched: its burst admits these.
	for i := 0; i < 3; i++ {
		mustExec(t, f, "victim", fmt.Sprintf(`INSERT INTO kv VALUES ('v%d', 'v')`, i))
	}
}

// A second router with a cold/stale cache transparently follows the
// typed redirect after a migration: one refresh, one retry, no error
// surfaces to the client.
func TestStaleRouterRedirect(t *testing.T) {
	reg := obs.NewRegistry()
	f := testFleet(t, FleetConfig{Clusters: 2, Tenants: []string{"t0"}, Obs: obs.Plane{Metrics: reg}})
	mustExec(t, f, "t0", `CREATE TABLE kv (k TEXT PRIMARY KEY, v TEXT)`)
	mustExec(t, f, "t0", `INSERT INTO kv VALUES ('x', 'v1')`)

	// A second stateless router over the same fleet, cache warmed now.
	r2 := NewRouter(Options{Placement: f.Placement, Obs: obs.Plane{Metrics: reg}})
	for _, h := range f.Hosts() {
		r2.AddHost(h)
	}
	r2.Refresh()

	if err := f.Migrate(context.Background(), "t0", "h1"); err != nil {
		t.Fatalf("migrate: %v", err)
	}

	// r2 still maps t0 → h0; the request must redirect and succeed.
	res, err := r2.ExecContext(context.Background(), "t0", `SELECT v FROM kv WHERE k = 'x'`)
	if err != nil {
		t.Fatalf("stale-cache exec: %v", err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].String() != "v1" {
		t.Fatalf("stale-cache read = %v", res.Rows)
	}
	if got := reg.Snapshot().Counters["frontdoor.tenant.t0.redirects"]; got == 0 {
		t.Fatal("redirect was not accounted")
	}
}

// The per-tenant observability plane: ops, latency, and wait-class
// series land under frontdoor.tenant.<t>.*.
func TestTenantLabeledMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	f := testFleet(t, FleetConfig{Clusters: 1, Tenants: []string{"t0"}, Obs: obs.Plane{Metrics: reg}})
	mustExec(t, f, "t0", `CREATE TABLE kv (k TEXT PRIMARY KEY, v TEXT)`)
	mustExec(t, f, "t0", `INSERT INTO kv VALUES ('x', 'v')`)
	snap := reg.Snapshot()
	if snap.Counters["frontdoor.tenant.t0.ops"] < 2 {
		t.Fatalf("ops counter = %d, want >= 2", snap.Counters["frontdoor.tenant.t0.ops"])
	}
	if _, ok := snap.Histograms["frontdoor.tenant.t0.latency"]; !ok {
		t.Fatal("latency histogram missing")
	}
}

func TestTokenBucket(t *testing.T) {
	b := newTokenBucket(10, 2)
	now := time.Now()
	if !b.admit(now) || !b.admit(now) {
		t.Fatal("burst tokens rejected")
	}
	if b.admit(now) {
		t.Fatal("empty bucket admitted")
	}
	if !b.admit(now.Add(200 * time.Millisecond)) {
		t.Fatal("refilled bucket rejected")
	}
	var unlimited *tokenBucket
	if !unlimited.admit(now) || !newTokenBucket(0, 0).admit(now) {
		t.Fatal("unlimited bucket rejected")
	}
}
