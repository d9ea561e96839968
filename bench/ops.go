package main

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"strconv"

	"socrates/internal/cdb"
)

// The op stream is a pure function of (seed, workload, client, phase): the
// harness generates every key, size and value itself, so two runs with the
// same seed execute the same operations in the same per-client order.
// internal/cdb supplies only table shapes and the transaction classes'
// shapes; its fixed-seed Client RNG is never used.

// cdbZipfS is cdb.New's read skew (unexported there).
const cdbZipfS = 1.03

// tableID indexes cdbTables; the shadow map keys on it instead of a string.
type tableID uint8

const (
	tblFixedLarge tableID = iota
	tblLean
	tblUpdate
	tblFat
	tblInsert
	tblSQL
)

// cdbTable describes one table as the harness sees it. static tables are
// never written after load, so every read of a key must return the same
// bytes; fixedRows > 0 pins the row count regardless of the scale factor.
type cdbTable struct {
	name      string
	fixedRows int
	static    bool
}

var cdbTables = [...]cdbTable{
	tblFixedLarge: {name: cdb.TableFixedLarge, fixedRows: 1000, static: true},
	tblLean:       {name: cdb.TableScaledLean, static: true},
	tblUpdate:     {name: cdb.TableScaledUpdate},
	tblFat:        {name: cdb.TableScaledFat},
	tblInsert:     {name: cdb.TableScaledInsert},
}

// rows reports how many rows cdb.Workload.Setup loaded into t at scale sf.
func (t tableID) rows(sf int) int {
	if n := cdbTables[t].fixedRows; n > 0 {
		return n
	}
	return sf
}

type opKind uint8

const (
	opPoint opKind = iota
	opScan
	opUpdate
	opInsert
	opSQLSelect
	opSQLUpdate
	opSQLInsert
)

// op is one transaction of the stream.
type op struct {
	kind  opKind
	class cdb.TxnType // CDB class (simulated CPU charge); unused for SQL
	table tableID
	row   int    // first key (point, scan, insert, SQL id)
	span  int    // scan width
	rows  [8]int // update targets (n of them)
	n     int    // rows written
	size  int    // payload bytes per written row
	val   uint64 // value seed: payload i of the op is fill(val+i, size)
	write bool
}

// phase separates the warm-up stream from the measured one.
type phase uint64

const (
	phaseWarm phase = iota
	phaseMeasure
)

// splitmix64 is the stream-seed mixer and the payload generator.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

func streamSeed(seed int64, workload string, client int, ph phase) int64 {
	h := fnv.New64a()
	h.Write([]byte(workload)) // hash.Hash.Write never fails
	x := splitmix64(uint64(seed)) ^ h.Sum64()
	x = splitmix64(x ^ uint64(client)<<8 ^ uint64(ph))
	return int64(x >> 1)
}

// fill writes the payload identified by val into buf.
func fill(buf []byte, val uint64) {
	x := val
	for i := 0; i < len(buf); i += 8 {
		x = splitmix64(x)
		if len(buf)-i >= 8 {
			binary.LittleEndian.PutUint64(buf[i:], x)
			continue
		}
		var tail [8]byte
		binary.LittleEndian.PutUint64(tail[:], x)
		copy(buf[i:], tail[:])
	}
}

func cdbKey(buf *[8]byte, i int) []byte {
	binary.BigEndian.PutUint64(buf[:], uint64(i))
	return buf[:]
}

// generator yields one client's op stream for one phase.
type generator struct {
	spec   *spec
	client int
	rng    *rand.Rand
	zipf   *rand.Zipf
	// insertSeq numbers this client's inserted rows; it is carried from the
	// warm-up generator into the measured one so IDs never repeat.
	insertSeq int
}

func newGenerator(s *spec, seed int64, client int, ph phase, insertSeq int) *generator {
	r := rand.New(rand.NewSource(streamSeed(seed, s.name, client, ph)))
	g := &generator{spec: s, client: client, rng: r, insertSeq: insertSeq}
	if !s.sql {
		max := uint64(1)
		if s.sf > 1 {
			max = uint64(s.sf - 1)
		}
		g.zipf = rand.NewZipf(r, cdbZipfS, 8, max)
	}
	return g
}

func (g *generator) next() op {
	if g.spec.sql {
		return g.nextSQL()
	}
	return g.nextCDB()
}

func (g *generator) pickClass() cdb.TxnType {
	w := g.spec.mix.Weights
	total := 0
	for _, n := range w {
		total += n
	}
	x := g.rng.Intn(total)
	for t, n := range w {
		if x < n {
			return cdb.TxnType(t)
		}
		x -= n
	}
	return cdb.PointLookup
}

// readTarget mirrors cdb's read placement: zipf-hot rows spread over the
// four loaded tables.
func (g *generator) readTarget() (tableID, int) {
	row := int(g.zipf.Uint64())
	switch g.rng.Intn(10) {
	case 0, 1, 2, 3:
		return tblLean, row
	case 4, 5, 6:
		return tblUpdate, row
	case 7, 8:
		return tblFat, row
	default:
		return tblFixedLarge, row % 1000
	}
}

func (g *generator) nextCDB() op {
	class := g.pickClass()
	o := op{class: class, val: g.rng.Uint64()}
	switch class {
	case cdb.PointLookup:
		o.kind = opPoint
		o.table, o.row = g.readTarget()
	case cdb.RangeScan, cdb.CPUHeavy:
		o.kind = opScan
		o.table, o.row = g.readTarget()
		o.span = 50
		if class == cdb.CPUHeavy {
			o.span = 200
		}
	case cdb.UpdateLite, cdb.UpdateHeavy:
		// Write targets are uniform, as in cdb: a zipf-hot write set would
		// measure lock conflicts, not the commit path.
		o.kind, o.write = opUpdate, true
		o.table, o.n, o.size = tblUpdate, 1, 80
		if class == cdb.UpdateHeavy {
			o.table, o.n, o.size = tblFat, 8, 512
		}
		for i := 0; i < o.n; i++ {
			o.rows[i] = g.rng.Intn(g.spec.sf)
		}
	case cdb.BulkInsert:
		o.kind, o.write = opInsert, true
		o.table, o.n, o.size = tblInsert, 20, 96
		o.row = g.client*1_000_000_000 + g.insertSeq
		g.insertSeq += o.n
	}
	return o
}

// sqlMix is the sql-point statement mix in percent: point SELECT, one-row
// UPDATE, single-row INSERT.
var sqlMix = [...]int{75, 20, 5}

func (g *generator) nextSQL() op {
	o := op{table: tblSQL, val: g.rng.Uint64()}
	switch x := g.rng.Intn(100); {
	case x < sqlMix[0]:
		o.kind = opSQLSelect
		o.row = g.rng.Intn(g.spec.rows)
	case x < sqlMix[0]+sqlMix[1]:
		// Each client updates only ids congruent to its index, so the SQL
		// shadow map needs no commit LSN to order two writers of one row
		// (Session does not expose it).
		o.kind, o.write, o.n = opSQLUpdate, true, 1
		o.row = g.rng.Intn(g.spec.rows/numClients)*numClients + g.client
	default:
		o.kind, o.write, o.n = opSQLInsert, true, 1
		o.row = g.spec.rows + g.client*100_000_000 + g.insertSeq
		g.insertSeq++
	}
	return o
}

// sqlA is the value an UPDATE or INSERT op stores in column a.
func (o *op) sqlA() int64 { return int64(o.val >> 1) }

// sqlV is column v of row id: never updated, so every SELECT is checked
// against it.
func sqlV(id int) string {
	return "v" + strconv.Itoa(id) + "-socrates-bench-row-payload-0123456789abcdef"
}

// sqlText renders the statement for a SQL op.
func (o *op) sqlText(buf []byte) []byte {
	buf = buf[:0]
	switch o.kind {
	case opSQLSelect:
		buf = append(buf, "SELECT v FROM t WHERE id = "...)
		buf = strconv.AppendInt(buf, int64(o.row), 10)
	case opSQLUpdate:
		buf = append(buf, "UPDATE t SET a = "...)
		buf = strconv.AppendInt(buf, o.sqlA(), 10)
		buf = append(buf, " WHERE id = "...)
		buf = strconv.AppendInt(buf, int64(o.row), 10)
	case opSQLInsert:
		buf = append(buf, "INSERT INTO t VALUES ("...)
		buf = strconv.AppendInt(buf, int64(o.row), 10)
		buf = append(buf, ", "...)
		buf = strconv.AppendInt(buf, o.sqlA(), 10)
		buf = append(buf, ", '"...)
		buf = append(buf, sqlV(o.row)...)
		buf = append(buf, "')"...)
	}
	return buf
}

// streamHash fingerprints the first n ops of one client's measured stream.
func streamHash(s *spec, seed int64, client, n int) uint64 {
	g := newGenerator(s, seed, client, phaseMeasure, 0)
	h := fnv.New64a()
	var b [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(b[:], x)
		h.Write(b[:]) // hash.Hash.Write never fails
	}
	for i := 0; i < n; i++ {
		o := g.next()
		put(uint64(o.kind)<<32 | uint64(o.table)<<16 | uint64(o.n))
		put(uint64(o.row))
		put(uint64(o.span))
		put(o.val)
		for j := 0; j < o.n && o.kind == opUpdate; j++ {
			put(uint64(o.rows[j]))
		}
	}
	return h.Sum64()
}
