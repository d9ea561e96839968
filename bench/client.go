package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"socrates/internal/page"
	"socrates/internal/sqlengine"
	"socrates/internal/txn"
)

// shadowKey names one row the harness wrote.
type shadowKey struct {
	table tableID
	key   uint64
}

// shadowVal is the last acknowledged value of a row: the payload is
// fill(val, size) for CDB rows and column a = int64(val) for SQL rows. lsn
// is the acknowledging transaction's commit LSN, which orders two clients'
// writes of one row.
type shadowVal struct {
	val  uint64
	size int
	lsn  page.LSN
}

// client is one closed-loop client: it executes its op stream one
// transaction at a time, waiting for each reply.
type client struct {
	id   int
	d    *deployment
	rec  *recorder // nil when untraced
	sess *sqlengine.Session

	// shadow holds every row this client wrote (all phases); seen holds the
	// hash of every value read from a static table: a later read of the
	// same key must hash the same.
	shadow map[shadowKey]shadowVal
	seen   map[shadowKey]uint64

	// Measured-phase results.
	samples   []sample
	marks     []mark // client 0 only: one per slice boundary
	attempted int    // transactions started
	failed    int    // errored, retry-exhausted, or returned a wrong result
	tries     int    // commit attempts of write transactions
	aborts    int    // attempts lost to a write conflict
	userBytes int64
	// firstFailure describes the first failed transaction, for stderr.
	firstFailure string

	txnSeq  int
	key     [8]byte
	hi      [8]byte
	payload []byte
	sql     []byte
}

// sample is one committed, verified transaction of the measured phase.
type sample struct {
	lat   int64 // ns, from the first attempt
	slice int32
	write bool
}

// mark is the process-wide state at a slice boundary. The measured phase is
// cut into slices of equal op count and every rate is reported as the median
// over slices, so a burst of host noise that hits a few slices does not move
// the result. Client 0 takes the marks; committed counts both clients.
type mark struct {
	at                  time.Time
	committed           int64
	cpu, simCPU         time.Duration
	mallocs, allocBytes uint64
}

// phaseState is what the clients of one measured phase share.
type phaseState struct {
	committed atomic.Int64
	// perSlice is the op count of a slice; deadline ends the phase early on
	// a host too slow to finish the op count in several times its nominal
	// length (the run then reports the slices it completed).
	perSlice int
	deadline time.Time
}

func (c *client) takeMark(ps *phaseState) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	cpu, _ := rusage()
	c.marks = append(c.marks, mark{at: time.Now(), committed: ps.committed.Load(), cpu: cpu,
		simCPU: c.d.cl.PrimaryMeter.Busy(), mallocs: ms.Mallocs, allocBytes: ms.TotalAlloc})
}

func newClient(id int, d *deployment) *client {
	c := &client{id: id, d: d,
		shadow:  make(map[shadowKey]shadowVal),
		seen:    make(map[shadowKey]uint64),
		payload: make([]byte, 512)}
	if d.db != nil {
		c.sess = d.db.Session()
	}
	return c
}

// run executes n ops of g. With ps nil (warm-up) nothing is recorded but
// the shadow and seen maps.
func (c *client) run(g *generator, n int, ps *phaseState) {
	for i := 0; i < n; i++ {
		if ps != nil {
			if c.id == 0 && i%ps.perSlice == 0 {
				c.takeMark(ps)
			}
			if time.Now().After(ps.deadline) {
				break
			}
		}
		o := g.next()
		c.txnSeq++
		start := time.Now()
		root := c.rec.begin(spTxn, noSpan, c.txnSeq)
		ok := c.exec(&o, root)
		c.rec.end(root)
		lat := int64(time.Since(start))
		if ps == nil {
			continue
		}
		c.attempted++
		if !ok {
			c.failed++
			continue
		}
		ps.committed.Add(1)
		c.samples = append(c.samples, sample{lat: lat, slice: int32(i / ps.perSlice), write: o.write})
	}
	if ps != nil && c.id == 0 {
		c.takeMark(ps)
	}
}

// exec runs one transaction, retrying write conflicts; latency therefore
// runs from the first attempt. It reports whether the transaction committed
// and returned what the harness expected.
func (c *client) exec(o *op, root int) bool {
	if !c.d.spec.sql {
		// Simulated query-processing CPU is charged to the meter, not
		// burned: it is reported as sim_cpu_us_per_txn.
		c.d.cl.PrimaryMeter.Charge(o.class.CPUCost())
	}
	for try := 0; try <= maxRetries; try++ {
		var ok bool
		var err error
		if c.d.spec.sql {
			ok, err = c.execSQL(o, root)
		} else {
			ok, err = c.execCDB(o, root)
		}
		if o.write {
			c.tries++
		}
		if err == nil {
			if !ok {
				c.noteFailure(o, errors.New("unexpected result"))
			}
			return ok
		}
		if !errors.Is(err, txn.ErrWriteConflict) {
			c.noteFailure(o, err)
			return false
		}
		c.aborts++
		// The row lock is NO-WAIT and its holder keeps it until its commit
		// hardens (milliseconds on XIO), so an immediate retry would burn
		// every attempt inside one commit. Back off 0.25, 0.5, 1, ... ms.
		time.Sleep(250 * time.Microsecond << try) //socrates:sleep-ok conflict retry backoff in the benchmark client
	}
	c.noteFailure(o, errors.New("write conflict retries exhausted"))
	return false
}

func (c *client) noteFailure(o *op, err error) {
	if c.firstFailure == "" {
		c.firstFailure = fmt.Sprintf("client %d txn %d (kind %d table %d row %d): %v",
			c.id, c.txnSeq, o.kind, o.table, o.row, err)
	}
}

func (c *client) execCDB(o *op, root int) (bool, error) {
	e := c.d.engine()
	table := cdbTables[o.table].name
	switch o.kind {
	case opPoint:
		tx := e.BeginRO()
		defer tx.Abort()
		s := c.rec.begin(spGet, root, c.txnSeq)
		v, found, err := tx.Get(table, cdbKey(&c.key, o.row))
		c.rec.end(s)
		if err != nil {
			return false, err
		}
		return found && c.checkStatic(o.table, o.row, v), nil
	case opScan:
		tx := e.BeginRO()
		defer tx.Abort()
		got := 0
		s := c.rec.begin(spScan, root, c.txnSeq)
		err := tx.Scan(table, cdbKey(&c.key, o.row), cdbKey(&c.hi, o.row+o.span),
			func(_, _ []byte) bool { got++; return true })
		c.rec.end(s)
		if err != nil {
			return false, err
		}
		// The scanned tables are never inserted into or deleted from.
		want := o.table.rows(c.d.spec.sf) - o.row
		if want > o.span {
			want = o.span
		}
		return got == want, nil
	default: // opUpdate, opInsert
		tx := e.Begin()
		buf := c.payload[:o.size]
		for i := 0; i < o.n; i++ {
			fill(buf, o.val+uint64(i))
			s := c.rec.begin(spPut, root, c.txnSeq)
			err := tx.Put(table, cdbKey(&c.key, o.rowAt(i)), buf)
			c.rec.end(s)
			if err != nil {
				tx.Abort()
				return false, err
			}
		}
		s := c.rec.begin(spCommit, root, c.txnSeq)
		err := tx.Commit()
		c.rec.end(s)
		if err != nil {
			return false, err
		}
		for i := 0; i < o.n; i++ {
			c.shadow[shadowKey{o.table, uint64(o.rowAt(i))}] =
				shadowVal{val: o.val + uint64(i), size: o.size, lsn: tx.CommitLSN()}
		}
		c.userBytes += int64(o.n * (8 + o.size))
		return true, nil
	}
}

// rowAt is the key of the op's i-th written row.
func (o *op) rowAt(i int) int {
	if o.kind == opUpdate {
		return o.rows[i]
	}
	return o.row + i
}

// checkStatic verifies a value read from a never-written table against the
// first value this client read under the same key.
func (c *client) checkStatic(t tableID, row int, v []byte) bool {
	if !cdbTables[t].static {
		return len(v) > 0
	}
	h := uint64(14695981039346656037) // FNV-1a
	for _, b := range v {
		h = (h ^ uint64(b)) * 1099511628211
	}
	k := shadowKey{t, uint64(row)}
	if prev, ok := c.seen[k]; ok {
		return prev == h
	}
	c.seen[k] = h
	return true
}

func (c *client) execSQL(o *op, root int) (bool, error) {
	c.sql = o.sqlText(c.sql)
	s := c.rec.begin(spParse, root, c.txnSeq)
	stmt, err := sqlengine.Parse(string(c.sql))
	c.rec.end(s)
	if err != nil {
		return false, err
	}
	name := spSelect
	switch o.kind {
	case opSQLUpdate:
		name = spUpdate
	case opSQLInsert:
		name = spInsert
	}
	s = c.rec.begin(name, root, c.txnSeq)
	res, err := c.sess.RunContext(context.Background(), stmt)
	c.rec.end(s)
	if err != nil {
		return false, err
	}
	if o.kind == opSQLSelect {
		return len(res.Rows) == 1 && len(res.Rows[0]) == 1 && res.Rows[0][0].S == sqlV(o.row), nil
	}
	if res.Affected != 1 {
		return false, nil
	}
	c.shadow[shadowKey{tblSQL, uint64(o.row)}] = shadowVal{val: o.val}
	c.userBytes += 8 + 8
	if o.kind == opSQLInsert {
		c.userBytes += int64(len(sqlV(o.row)))
	}
	return true, nil
}

// mergeShadows folds the clients' shadow maps into one: where two clients
// wrote the same row, the higher commit LSN is the later write.
func mergeShadows(clients []*client) map[shadowKey]shadowVal {
	out := make(map[shadowKey]shadowVal)
	for _, c := range clients {
		for k, v := range c.shadow {
			if prev, ok := out[k]; !ok || v.lsn.After(prev.lsn) {
				out[k] = v
			}
		}
	}
	return out
}

// verify reads every shadowed row back through fresh read-only
// transactions on the current primary and counts the rows whose value is
// not the last acknowledged one. keys must be sorted by (table, key) so
// consecutive reads share pages.
func verify(d *deployment, keys []shadowKey, shadow map[shadowKey]shadowVal) (bad int, err error) {
	if d.spec.sql {
		return verifySQL(d, keys, shadow)
	}
	e := d.engine()
	var kb [8]byte
	want := make([]byte, 512)
	const perTx = 256 // rows per snapshot: keeps version-store pins short
	for base := 0; base < len(keys); base += perTx {
		tx := e.BeginRO()
		for _, k := range keys[base:min(base+perTx, len(keys))] {
			sv := shadow[k]
			got, found, gerr := tx.Get(cdbTables[k.table].name, cdbKey(&kb, int(k.key)))
			if gerr != nil {
				tx.Abort()
				return bad, fmt.Errorf("verify %s/%d: %w", cdbTables[k.table].name, k.key, gerr)
			}
			fill(want[:sv.size], sv.val)
			if !found || string(got) != string(want[:sv.size]) {
				bad++
			}
		}
		tx.Abort()
	}
	return bad, nil
}

func verifySQL(d *deployment, keys []shadowKey, shadow map[shadowKey]shadowVal) (bad int, err error) {
	sess := d.db.Session()
	var buf []byte
	for _, k := range keys {
		buf = append(buf[:0], "SELECT a, v FROM t WHERE id = "...)
		buf = strconv.AppendUint(buf, k.key, 10)
		res, rerr := sess.Exec(string(buf))
		if rerr != nil {
			return bad, fmt.Errorf("verify id %d: %w", k.key, rerr)
		}
		sv := shadow[k]
		if len(res.Rows) != 1 || res.Rows[0][0].I != int64(sv.val>>1) || res.Rows[0][1].S != sqlV(int(k.key)) {
			bad++
		}
	}
	return bad, nil
}
