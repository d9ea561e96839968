package socrates

import (
	"fmt"
	"testing"
	"time"
)

func openFast(t *testing.T, cfg Config) *DB {
	t.Helper()
	cfg.Fast = true
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(db.Close)
	return db
}

func TestOpenExecClose(t *testing.T) {
	db := openFast(t, Config{Name: "api1"})
	if _, err := db.Exec(`CREATE TABLE t (id INT PRIMARY KEY, v TEXT)`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`INSERT INTO t VALUES (1, 'hello'), (2, 'world')`); err != nil {
		t.Fatal(err)
	}
	res, err := db.Exec(`SELECT v FROM t ORDER BY id`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[0][0].S != "hello" {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestSQLSurvivesFailover(t *testing.T) {
	db := openFast(t, Config{Name: "api2"})
	if _, err := db.Exec(`CREATE TABLE t (id INT PRIMARY KEY, v INT)`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`INSERT INTO t VALUES (1, 42)`); err != nil {
		t.Fatal(err)
	}
	d, err := db.Failover()
	if err != nil {
		t.Fatal(err)
	}
	if d > 30*time.Second {
		t.Fatalf("failover took %v", d)
	}
	res, err := db.Exec(`SELECT v FROM t WHERE id = 1`)
	if err != nil || len(res.Rows) != 1 || res.Rows[0][0].I != 42 {
		t.Fatalf("post-failover: %v %v", res, err)
	}
	if _, err := db.Exec(`INSERT INTO t VALUES (2, 43)`); err != nil {
		t.Fatal(err)
	}
}

// The observability accessors README documents, read through the public
// surface: the hardened rung on the ladder, a healthy watchdog, and the
// failover's two flight-recorder events.
func TestObservabilityAccessors(t *testing.T) {
	db := openFast(t, Config{Name: "api-obs"})
	if _, err := db.Exec(`CREATE TABLE t (id INT PRIMARY KEY, v INT)`); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := db.Exec(fmt.Sprintf(`INSERT INTO t VALUES (%d, %d)`, i, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.WaitForReplication(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	// The landing zone publishes its rung before the log writer's hardened
	// end moves, so the rung read after is at least the end read before.
	hardened := db.Cluster().Primary().HardenedEnd().Uint64()
	var rung *WatermarkState
	wms := db.Watermarks()
	for i := range wms {
		if wms[i].Name == "lz.hardened_lsn" && wms[i].Replica == "" {
			rung = &wms[i]
		}
	}
	if rung == nil {
		t.Fatalf("no lz.hardened_lsn rung in %+v", wms)
	}
	if rung.LSN < hardened {
		t.Fatalf("lz.hardened_lsn = %d, below the primary's hardened end %d", rung.LSN, hardened)
	}
	if trips := db.WatchdogTrips(); len(trips) != 0 {
		t.Fatalf("healthy deployment tripped the watchdog: %+v", trips)
	}

	if _, err := db.Failover(); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, ev := range db.FlightEvents() {
		seen[ev.Kind] = true
	}
	if !seen["failover.start"] || !seen["failover.done"] {
		t.Fatalf("flight events after a failover lack failover.start/done: %v", seen)
	}
}

func TestReadSessionOnSecondary(t *testing.T) {
	db := openFast(t, Config{Name: "api3", Secondaries: 1})
	if _, err := db.Exec(`CREATE TABLE t (id INT PRIMARY KEY)`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`INSERT INTO t VALUES (7)`); err != nil {
		t.Fatal(err)
	}
	if err := db.WaitForReplication(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	names := db.Secondaries()
	if len(names) != 1 {
		t.Fatalf("secondaries = %v", names)
	}
	sess, err := db.ReadSession(names[0])
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Exec(`SELECT COUNT(*) FROM t`)
	if err != nil || res.Rows[0][0].I != 1 {
		t.Fatalf("secondary read: %v %v", res, err)
	}
	// Writes on a secondary session fail.
	if _, err := sess.Exec(`INSERT INTO t VALUES (8)`); err == nil {
		t.Fatal("write on secondary accepted")
	}
	if _, err := db.ReadSession("ghost"); err == nil {
		t.Fatal("session on unknown secondary accepted")
	}
}

func TestBackupAndRestoreAPI(t *testing.T) {
	db := openFast(t, Config{Name: "api4"})
	if _, err := db.Exec(`CREATE TABLE t (id INT PRIMARY KEY, v TEXT)`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`INSERT INTO t VALUES (1, 'keep')`); err != nil {
		t.Fatal(err)
	}
	if err := db.Backup("daily"); err != nil {
		t.Fatal(err)
	}
	mark := db.BackupLSN()
	if _, err := db.Exec(`DELETE FROM t WHERE id = 1`); err != nil {
		t.Fatal(err)
	}

	restored, err := db.PointInTimeRestore("daily", mark)
	if err != nil {
		t.Fatal(err)
	}
	res, err := restored.Exec(`SELECT v FROM t WHERE id = 1`)
	if err != nil || len(res.Rows) != 1 || res.Rows[0][0].S != "keep" {
		t.Fatalf("restored: %v %v", res, err)
	}
	if _, err := db.PointInTimeRestore("nope", 0); !IsNoBackup(err) {
		t.Fatalf("unknown backup: %v", err)
	}
}

func TestKVAndStats(t *testing.T) {
	db := openFast(t, Config{Name: "api5", CacheMemPages: 4})
	eng := db.KV()
	if err := eng.CreateTable("raw"); err != nil {
		t.Fatal(err)
	}
	wide := make([]byte, 512)
	tx := eng.Begin()
	for i := 0; i < 500; i++ {
		if err := tx.Put("raw", []byte(fmt.Sprintf("k%04d", i)), wide); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// A full scan over a database much larger than the cache must fetch
	// pages from the page servers.
	count := 0
	if err := eng.BeginRO().Scan("raw", nil, nil, func(k, v []byte) bool {
		count++
		return true
	}); err != nil || count != 500 {
		t.Fatalf("scan: %d %v", count, err)
	}
	st := db.MetricsSnapshot()
	if db.BackupLSN() == 0 || st.LandingZone.Counters["write.bytes"] == 0 || st.PageServers == 0 {
		t.Fatalf("hardened LSN %d, stats = %+v", db.BackupLSN(), st)
	}
	if st.RemoteFetches == 0 {
		t.Fatal("tiny cache should have remote-fetched pages")
	}
}

func TestScaleWorkflowsViaAPI(t *testing.T) {
	db := openFast(t, Config{Name: "api6"})
	if _, err := db.Exec(`CREATE TABLE t (id INT PRIMARY KEY, v TEXT)`); err != nil {
		t.Fatal(err)
	}
	s := db.Session()
	if _, err := s.Exec("BEGIN"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 800; i++ {
		if _, err := s.Exec(fmt.Sprintf(`INSERT INTO t VALUES (%d, 'row')`, i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Exec("COMMIT"); err != nil {
		t.Fatal(err)
	}
	if err := db.AddSecondary("reader"); err != nil {
		t.Fatal(err)
	}
	if err := db.SplitPageServer(0); err != nil {
		t.Fatal(err)
	}
	if err := db.AddPageServerReplica(0); err != nil {
		t.Fatal(err)
	}
	res, err := db.Exec(`SELECT COUNT(*) FROM t`)
	if err != nil || res.Rows[0][0].I != 800 {
		t.Fatalf("after reshaping: %v %v", res, err)
	}
	if err := db.RemoveSecondary("reader"); err != nil {
		t.Fatal(err)
	}
}
