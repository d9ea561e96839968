// Package cdb reimplements the shape of CDB, Microsoft's Cloud Database
// Benchmark (a.k.a. the DTU benchmark), which the paper uses for every
// throughput experiment (§7.1): "a synthetic database with six tables and a
// scaling factor", with "transaction types covering a wide range of
// operations from simple point lookups to complex bulk updates" and named
// workload mixes.
//
// The benchmark is closed source; this reconstruction follows the paper's
// description: six tables (two fixed-size, four scaled), six transaction
// classes, and the three mixes the evaluation uses — the default mix
// (Table 2), the update-heavy/max-log mix (Table 5), and the UpdateLite mix
// (Appendix A). Row access is zipf-skewed, which is what yields the ~50%
// cache hit rate at a 15% cache:database ratio reported in Table 3.
package cdb

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"time"

	"socrates/internal/engine"
	"socrates/internal/metrics"
	"socrates/internal/simdisk"
	"socrates/internal/workload"
)

// Table names: two fixed-size reference tables and four SF-scaled tables.
const (
	TableFixedSmall   = "cdb_fixed_small"   // 100 rows, reference data
	TableFixedLarge   = "cdb_fixed_large"   // 1000 rows, reference data
	TableScaledLean   = "cdb_scaled_lean"   // SF rows, narrow
	TableScaledUpdate = "cdb_scaled_update" // SF rows, update targets
	TableScaledFat    = "cdb_scaled_fat"    // SF/4 rows, wide payloads
	TableScaledInsert = "cdb_scaled_insert" // append-only inserts
)

// TxnType is one CDB transaction class.
type TxnType int

// Transaction classes, point lookups through bulk updates.
const (
	PointLookup TxnType = iota
	RangeScan
	CPUHeavy
	UpdateLite
	UpdateHeavy
	BulkInsert
	numTxnTypes
)

func (t TxnType) String() string {
	switch t {
	case PointLookup:
		return "point-lookup"
	case RangeScan:
		return "range-scan"
	case CPUHeavy:
		return "cpu-heavy"
	case UpdateLite:
		return "update-lite"
	case UpdateHeavy:
		return "update-heavy"
	case BulkInsert:
		return "bulk-insert"
	default:
		return fmt.Sprintf("txn(%d)", int(t))
	}
}

// IsWrite reports whether the class commits changes.
func (t TxnType) IsWrite() bool {
	switch t {
	case UpdateLite, UpdateHeavy, BulkInsert:
		return true
	}
	return false
}

// cpuCost is the simulated query-processing CPU per transaction class,
// charged to the node's meter (drives the paper's CPU% columns).
func (t TxnType) cpuCost() time.Duration {
	switch t {
	case PointLookup:
		return 350 * time.Microsecond
	case RangeScan:
		return 1200 * time.Microsecond
	case CPUHeavy:
		return 3 * time.Millisecond
	case UpdateLite:
		return 250 * time.Microsecond
	case UpdateHeavy:
		return 2 * time.Millisecond
	case BulkInsert:
		return 1500 * time.Microsecond
	default:
		return 0
	}
}

// Mix is a distribution over transaction classes (weights sum to 100).
type Mix struct {
	Name    string
	Weights [numTxnTypes]int
}

// The paper's three mixes.
var (
	// DefaultMix "executes all transaction types of the benchmark" with a
	// roughly 3:1 read:write transaction ratio (Table 2).
	DefaultMix = Mix{
		Name: "default",
		Weights: [numTxnTypes]int{
			PointLookup: 40, RangeScan: 20, CPUHeavy: 15,
			UpdateLite: 10, UpdateHeavy: 5, BulkInsert: 10,
		},
	}
	// MaxLogMix "produces the maximum amount of log data" (Table 5).
	MaxLogMix = Mix{
		Name: "max-log",
		Weights: [numTxnTypes]int{
			UpdateHeavy: 60, BulkInsert: 30, UpdateLite: 10,
		},
	}
	// UpdateLiteMix is "mostly small updates and no read transactions"
	// (Appendix A).
	UpdateLiteMix = Mix{
		Name:    "update-lite",
		Weights: [numTxnTypes]int{UpdateLite: 100},
	}
	// ReadOnlyMix tests read scale-out on secondaries.
	ReadOnlyMix = Mix{
		Name: "read-only",
		Weights: [numTxnTypes]int{
			PointLookup: 60, RangeScan: 25, CPUHeavy: 15,
		},
	}
)

// pick draws a transaction class.
func (m Mix) pick(r *rand.Rand) TxnType {
	n := 0
	for _, w := range m.Weights {
		n += w
	}
	x := r.Intn(n)
	for t, w := range m.Weights {
		if x < w {
			return TxnType(t)
		}
		x -= w
	}
	return PointLookup
}

// Workload is one CDB database instance's generator state.
type Workload struct {
	SF       int // rows in each scaled table
	RowBytes int // payload bytes per row (lean rows)
	zipfS    float64
}

// New creates a workload for the given scale factor. RowBytes defaults to
// 96 (narrow OLTP rows); zipf skew defaults to 1.07, calibrated so the
// default mix reproduces Table 3's cache-hit shape.
func New(sf int) *Workload {
	return &Workload{SF: sf, RowBytes: 96, zipfS: 1.03}
}

func key(i int) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(i))
	return b[:]
}

func (w *Workload) payload(r *rand.Rand, n int) []byte {
	buf := make([]byte, n)
	r.Read(buf)
	return buf
}

// Setup creates the six tables and loads the initial data. Load batches
// rows to keep commit counts sane.
func (w *Workload) Setup(e *engine.Engine) error {
	tables := []struct {
		name string
		rows int
		size int
	}{
		{TableFixedSmall, 100, 64},
		{TableFixedLarge, 1000, 64},
		{TableScaledLean, w.SF, w.RowBytes},
		{TableScaledUpdate, w.SF, w.RowBytes},
		{TableScaledFat, w.SF, 512},
	}
	for _, tbl := range tables {
		if err := e.CreateTable(tbl.name); err != nil {
			return err
		}
	}
	if err := e.CreateTable(TableScaledInsert); err != nil {
		return err
	}
	r := rand.New(rand.NewSource(42))
	for _, tbl := range tables {
		const batch = 100
		for base := 0; base < tbl.rows; base += batch {
			tx := e.Begin()
			for i := base; i < base+batch && i < tbl.rows; i++ {
				if err := tx.Put(tbl.name, key(i), w.payload(r, tbl.size)); err != nil {
					tx.Abort()
					return err
				}
			}
			if err := tx.Commit(); err != nil {
				return err
			}
		}
	}
	return nil
}

// Client is one workload driver thread (its own RNG and zipf stream).
type Client struct {
	w        *Workload
	rng      *rand.Rand
	zipf     *rand.Zipf
	insertID int
	clientID int
}

// NewClient creates client number id with a deterministic RNG.
func (w *Workload) NewClient(id int) *Client {
	r := rand.New(rand.NewSource(int64(id)*7919 + 13))
	max := uint64(w.SF - 1)
	if w.SF <= 1 {
		max = 1
	}
	return &Client{
		w:        w,
		rng:      r,
		zipf:     rand.NewZipf(r, w.zipfS, 8, max),
		clientID: id,
	}
}

// hotRow draws a zipf-skewed row index.
func (c *Client) hotRow() int { return int(c.zipf.Uint64()) }

// readTarget picks the table and row a read touches. The default mix
// "randomly touches pages scattered across the entire database" (§7.3):
// reads spread over all four scaled/fixed tables, zipf-skewed within each,
// which is what yields a useful-but-not-perfect cache hit rate.
func (c *Client) readTarget() (string, int) {
	row := c.hotRow()
	switch c.rng.Intn(10) {
	case 0, 1, 2, 3:
		return TableScaledLean, row
	case 4, 5, 6:
		return TableScaledUpdate, row
	case 7, 8:
		return TableScaledFat, row
	default:
		return TableFixedLarge, row % 1000
	}
}

// TxnStats describes one executed transaction.
type TxnStats struct {
	Type     TxnType
	Latency  time.Duration
	Aborted  bool
	RowsRead int
}

// Pick draws the next transaction class from the mix.
func (c *Client) Pick(mix Mix) TxnType { return mix.pick(c.rng) }

// CPUCost reports the simulated query-processing CPU of a class.
func (t TxnType) CPUCost() time.Duration { return t.cpuCost() }

// RunType executes one transaction of the given class against the engine,
// charging the meter for query-processing CPU. Write conflicts abort and
// are reported, as in any OLTP harness.
func (c *Client) RunType(e *engine.Engine, t TxnType, meter *metrics.CPUMeter) (TxnStats, error) {
	start := time.Now()
	if meter != nil {
		meter.Charge(t.cpuCost())
	}
	var err error
	var rows int
	switch t {
	case PointLookup:
		rows, err = c.pointLookup(e)
	case RangeScan:
		rows, err = c.rangeScan(e, 50)
	case CPUHeavy:
		rows, err = c.rangeScan(e, 200)
	case UpdateLite:
		err = c.updateRows(e, TableScaledUpdate, 1, 80)
	case UpdateHeavy:
		err = c.updateRows(e, TableScaledFat, 8, 512)
	case BulkInsert:
		err = c.bulkInsert(e, 20)
	}
	stats := TxnStats{Type: t, Latency: time.Since(start), RowsRead: rows}
	if err != nil {
		stats.Aborted = true
	}
	return stats, err
}

func (c *Client) pointLookup(e *engine.Engine) (int, error) {
	tx := e.BeginRO()
	defer tx.Abort()
	table, row := c.readTarget()
	_, found, err := tx.Get(table, key(row))
	if err != nil {
		return 0, err
	}
	if found {
		return 1, nil
	}
	return 0, nil
}

func (c *Client) rangeScan(e *engine.Engine, span int) (int, error) {
	tx := e.BeginRO()
	defer tx.Abort()
	table, lo := c.readTarget()
	count := 0
	err := tx.Scan(table, key(lo), key(lo+span), func(k, v []byte) bool {
		count++
		return true
	})
	return count, err
}

func (c *Client) updateRows(e *engine.Engine, table string, n, size int) error {
	tx := e.Begin()
	for i := 0; i < n; i++ {
		// Updates spread uniformly: CDB's write classes touch the whole
		// table (zipf locality applies to the read classes). A zipf-hot
		// write target would turn the benchmark into a lock-conflict
		// storm under first-updater-wins.
		row := c.rng.Intn(c.w.SF)
		if err := tx.Put(table, key(row), c.w.payload(c.rng, size)); err != nil {
			tx.Abort()
			return err
		}
	}
	return tx.Commit()
}

// Runner adapts a client to the generic workload driver, binding the
// engine, mix, and meter. Gate, if non-nil, is a semaphore sized to the
// node's core count: each transaction's query-processing CPU is burned as
// wall-clock time while holding a slot, so throughput becomes CPU-bound at
// the simulated core count — the regime of the paper's Table 2, where both
// systems run near 100% CPU and I/O waits shave throughput.
type Runner struct {
	C     *Client
	E     *engine.Engine
	Mix   Mix
	Meter *metrics.CPUMeter
	Gate  chan struct{}
}

// Run implements workload.Runner.
func (r Runner) Run() (workload.Outcome, error) {
	t := r.C.Pick(r.Mix)
	if r.Gate != nil {
		r.Gate <- struct{}{}
		simdisk.SleepPrecise(t.cpuCost())
		<-r.Gate
	}
	stats, err := r.C.RunType(r.E, t, r.Meter)
	kind := workload.Read
	if stats.Type.IsWrite() {
		kind = workload.Write
	}
	return workload.Outcome{Kind: kind, Latency: stats.Latency, Aborted: stats.Aborted}, err
}

func (c *Client) bulkInsert(e *engine.Engine, n int) error {
	tx := e.Begin()
	for i := 0; i < n; i++ {
		id := c.clientID*1_000_000_000 + c.insertID
		c.insertID++
		if err := tx.Put(TableScaledInsert, key(id), c.w.payload(c.rng, c.w.RowBytes)); err != nil {
			tx.Abort()
			return err
		}
	}
	return tx.Commit()
}
