package main

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"socrates"
	"socrates/internal/cdb"
	"socrates/internal/cluster"
	"socrates/internal/engine"
	"socrates/internal/simdisk"
	"socrates/internal/xstore"
)

// deployment is a running Socrates cluster loaded with a workload's data.
type deployment struct {
	spec *spec
	cl   *cluster.Cluster
	db   *socrates.DB // SQL workloads only
	// userBytes is the logical size (key + value bytes) of the loaded rows.
	userBytes int64
}

// deploy builds the workload's deployment and loads its data.
//
// CDB workloads run on the experiments package's production shape: XIO
// landing zone (3 replicas, quorum 2), LAN fabric, local-SSD RBPEX, HDD
// XStore, 20 ms checkpoints. The SQL workload runs on socrates.Open's Fast
// shape, where every device is Instant, so no simulated sleep hides CPU.
func deploy(s *spec, seed int64) (*deployment, error) {
	d := &deployment{spec: s}
	if s.sql {
		db, err := socrates.Open(socrates.Config{Fast: true, CacheMemPages: s.memPages})
		if err != nil {
			return nil, err
		}
		d.db, d.cl = db, db.Cluster()
		if err := d.loadSQL(); err != nil {
			d.close()
			return nil, err
		}
		return d, nil
	}
	cl, err := cluster.New(cluster.Config{
		Name:            s.name,
		LZProfile:       simdisk.XIO,
		LZCapacity:      32 << 20,
		ComputeMemPages: s.memPages,
		ComputeSSDPages: s.ssdPages,
		PSMemPages:      256,
		PSPullBytes:     1 << 20,
		PrimaryCores:    8,
		CheckpointEvery: 20 * time.Millisecond,
		XStore:          xstore.Config{Profile: simdisk.HDD},
		Seed:            seed,
	})
	if err != nil {
		return nil, err
	}
	d.cl = cl
	if err := cdb.New(s.sf).Setup(d.engine()); err != nil {
		d.close()
		return nil, fmt.Errorf("cdb setup: %w", err)
	}
	// cdb.Workload.Setup's table shapes: 100 and 1000 fixed rows of 64 B,
	// then sf rows each of 96, 96 and 512 B; keys are 8 B.
	d.userBytes = 1100*(8+64) + int64(s.sf)*((8+96)+(8+96)+(8+512))
	return d, nil
}

func (d *deployment) engine() *engine.Engine { return d.cl.Primary().Engine }

// loadSQL creates t(id INT PRIMARY KEY, a INT, v TEXT) and loads rows
// 0..rows-1 in multi-row INSERTs.
func (d *deployment) loadSQL() error {
	if _, err := d.db.Exec(`CREATE TABLE t (id INT PRIMARY KEY, a INT, v TEXT)`); err != nil {
		return err
	}
	const batch = 100
	var sb strings.Builder
	for base := 0; base < d.spec.rows; base += batch {
		sb.Reset()
		sb.WriteString("INSERT INTO t VALUES ")
		for id := base; id < base+batch && id < d.spec.rows; id++ {
			if id > base {
				sb.WriteByte(',')
			}
			v := sqlV(id)
			sb.WriteString("(" + strconv.Itoa(id) + ", 0, '" + v + "')")
			d.userBytes += 8 + 8 + int64(len(v))
		}
		if _, err := d.db.Exec(sb.String()); err != nil {
			return fmt.Errorf("sql load: %w", err)
		}
	}
	return nil
}

// failover crashes the primary and attaches a fresh one that recovers from
// the landing zone, XLOG and the page servers only.
func (d *deployment) failover() (time.Duration, error) {
	if d.db != nil {
		return d.db.Failover()
	}
	_, took, err := d.cl.Failover()
	return took, err
}

func (d *deployment) close() {
	if d.db != nil {
		d.db.Close()
		return
	}
	d.cl.Close()
}
