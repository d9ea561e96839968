package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"socrates/internal/btree"
	"socrates/internal/cluster"
	"socrates/internal/engine"
	"socrates/internal/fcb"
	"socrates/internal/netmux"
	"socrates/internal/page"
	"socrates/internal/rbio"
	"socrates/internal/rbpex"
	"socrates/internal/simdisk"
	"socrates/internal/wal"
	"socrates/internal/xlog"
	"socrates/internal/xstore"
)

// Standalone layer probes: each exercises one layer's exported functions on
// a fresh instance, for a fixed iteration count, with nothing else running.
// Keys and value sizes come from the sql-point generator. The traced run
// reports them as <name>_ns_op (and <name>_allocs_op); probes_test.go wraps
// the same bodies as Benchmark* functions.

// probe is one microbenchmark. setup builds the instance and returns the
// operation (i is the iteration index) plus a teardown.
type probe struct {
	name   string
	iters  int
	allocs bool // also report allocations per op
	setup  func() (op func(i int) error, done func(), err error)
}

// probeRows is the key population the probes draw from (sql-point's table).
const probeRows = 20000

// probeKeys returns n keys in the sql-point generator's order.
func probeKeys(n int) [][]byte {
	s, err := findSpec("sql-point")
	if err != nil {
		panic(err) // the spec table is static
	}
	g := newGenerator(s, 1, 0, phaseMeasure, 0)
	keys := make([][]byte, 0, n)
	for len(keys) < n {
		if o := g.next(); o.kind == opSQLSelect {
			var kb [8]byte
			keys = append(keys, append([]byte(nil), cdbKey(&kb, o.row)...))
		}
	}
	return keys
}

// probeValue is sized like an encoded sql-point row.
func probeValue(id int) []byte {
	v := make([]byte, 16+len(sqlV(id)))
	fill(v, uint64(id))
	return v
}

// closing returns a teardown that closes cs in order; a probe's result is
// already taken by then, so a close error is only reported.
func closing(cs ...io.Closer) func() {
	return func() {
		for _, c := range cs {
			if err := c.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "bench: probe teardown:", err)
			}
		}
	}
}

// memPager is the smallest btree.Pager: pages in memory, IDs from a counter.
type memPager struct {
	*fcb.MemFile
	next page.ID
}

func (p *memPager) Allocate(t page.Type) (*page.Page, error) {
	p.next++
	return page.New(p.next, t), nil
}

// loadedTree builds a B-tree holding probeRows rows.
func loadedTree() (*btree.Tree, *memPager, *wal.MemLog, error) {
	pager := &memPager{MemFile: fcb.NewMemFile()}
	log := wal.NewMemLog()
	tree, err := btree.Create(pager, log, 1)
	if err != nil {
		return nil, nil, nil, err
	}
	var kb [8]byte
	for id := 0; id < probeRows; id++ {
		if err := tree.Put(1, cdbKey(&kb, id), probeValue(id)); err != nil {
			return nil, nil, nil, err
		}
	}
	return tree, pager, log, nil
}

// fixture is what the read-only probes share: one loaded tree, its fullest
// leaf, and the log records of a few small transactions (the shape one
// LogWriter flush carries). btree.put builds its own tree.
type fixture struct {
	tree *btree.Tree
	leaf *page.Page
	recs []*wal.Record
}

var sharedFixture *fixture

func getFixture() (*fixture, error) {
	if sharedFixture != nil {
		return sharedFixture, nil
	}
	tree, pager, log, err := loadedTree()
	if err != nil {
		return nil, err
	}
	f := &fixture{tree: tree}
	pager.Range(func(pg *page.Page) bool {
		if pg.Type == page.TypeLeaf && (f.leaf == nil || len(pg.Data) > len(f.leaf.Data)) {
			f.leaf = pg.Clone()
		}
		return true
	})
	if f.leaf == nil {
		return nil, errors.New("probe: tree has no leaf page")
	}
	mark := log.NextLSN()
	var kb [8]byte
	for txn := uint64(2); txn < 10; txn++ {
		if err := tree.Put(txn, cdbKey(&kb, int(txn)*97), probeValue(int(txn)*97)); err != nil {
			return nil, err
		}
		log.Append(wal.NewCommit(txn, txn))
	}
	f.recs = log.Since(mark)
	sharedFixture = f
	return f, nil
}

// block packs the fixture's records into one block starting at the
// builder's next LSN.
func (f *fixture) block(bld *wal.Builder) *wal.Block {
	for _, r := range f.recs {
		bld.Append(r)
	}
	return bld.Flush()
}

var probes = []probe{
	{name: "btree.get", iters: 10000, allocs: true, setup: func() (func(int) error, func(), error) {
		f, err := getFixture()
		if err != nil {
			return nil, nil, err
		}
		keys := probeKeys(4096)
		return func(i int) error {
			_, ok, err := f.tree.Get(keys[i%len(keys)])
			if err == nil && !ok {
				err = errors.New("probe: key missing")
			}
			return err
		}, func() {}, nil
	}},
	{name: "btree.put", iters: 10000, allocs: true, setup: func() (func(int) error, func(), error) {
		tree, _, _, err := loadedTree()
		if err != nil {
			return nil, nil, err
		}
		keys := probeKeys(4096)
		val := probeValue(7)
		return func(i int) error { return tree.Put(2, keys[i%len(keys)], val) }, func() {}, nil
	}},
	{name: "page.encode", iters: 20000, setup: func() (func(int) error, func(), error) {
		f, err := getFixture()
		if err != nil {
			return nil, nil, err
		}
		return func(int) error { _, err := f.leaf.Encode(); return err }, func() {}, nil
	}},
	{name: "page.decode", iters: 20000, setup: func() (func(int) error, func(), error) {
		f, err := getFixture()
		if err != nil {
			return nil, nil, err
		}
		buf, err := f.leaf.Encode()
		if err != nil {
			return nil, nil, err
		}
		return func(int) error { _, err := page.Decode(buf); return err }, func() {}, nil
	}},
	{name: "wal.block_encode", iters: 20000, setup: func() (func(int) error, func(), error) {
		f, err := getFixture()
		if err != nil {
			return nil, nil, err
		}
		blk := f.block(wal.NewBuilder(1, page.Partitioning{}))
		return func(int) error { blk.Encode(); return nil }, func() {}, nil
	}},
	{name: "wal.block_decode", iters: 20000, setup: func() (func(int) error, func(), error) {
		f, err := getFixture()
		if err != nil {
			return nil, nil, err
		}
		enc := f.block(wal.NewBuilder(1, page.Partitioning{})).Encode()
		return func(int) error { _, _, err := wal.DecodeBlock(enc); return err }, func() {}, nil
	}},
	{name: "rbpex.get_hit", iters: 100000, setup: func() (func(int) error, func(), error) {
		c, err := rbpex.Open(rbpex.Config{MemPages: 256})
		if err != nil {
			return nil, nil, err
		}
		for id := 1; id <= 256; id++ {
			if err := c.Put(&page.Page{ID: page.ID(id), LSN: 1, Type: page.TypeLeaf, Data: make([]byte, 4096)}); err != nil {
				return nil, nil, err
			}
		}
		return func(i int) error {
			if _, ok := c.Get(page.ID(1 + i%256)); !ok {
				return errors.New("probe: cached page missed")
			}
			return nil
		}, func() {}, nil
	}},
	{name: "rbpex.put_evict", iters: 20000, setup: func() (func(int) error, func(), error) {
		// Every Put of a new page pushes one out of the 64-page memory tier
		// into the 256-slot SSD tier, and one out of that.
		c, err := rbpex.Open(rbpex.Config{MemPages: 64, SSDPages: 256,
			SSD: simdisk.New(simdisk.Instant), Meta: simdisk.New(simdisk.Instant)})
		if err != nil {
			return nil, nil, err
		}
		pg := &page.Page{LSN: 1, Type: page.TypeLeaf, Data: make([]byte, 4096)}
		return func(i int) error {
			pg.ID = page.ID(1 + i)
			return c.Put(pg)
		}, func() {}, nil
	}},
	{name: "xlog.lz_write", iters: 20000, setup: func() (func(int) error, func(), error) {
		// The deployment's 3-replica / quorum-2 volume with Instant
		// devices: what is left is the CPU one landing-zone write costs.
		vol, err := simdisk.NewReplicated(simdisk.Instant, 3, 2)
		if err != nil {
			return nil, nil, err
		}
		lz, err := xlog.NewLandingZone(vol, 8<<20)
		if err != nil {
			return nil, nil, err
		}
		f, err := getFixture()
		if err != nil {
			return nil, nil, err
		}
		bld := wal.NewBuilder(lz.HardenedEnd(), page.Partitioning{})
		return func(int) error {
			blk := f.block(bld)
			if err := lz.Write(blk); err != nil {
				return err
			}
			lz.ReleaseUpTo(blk.End)
			return nil
		}, func() {}, nil
	}},
	{name: "netmux.call", iters: 10000, allocs: true, setup: func() (func(int) error, func(), error) {
		ok := rbio.Ok()
		srv, err := rbio.ServeTCP("127.0.0.1:0", func(context.Context, *rbio.Request) *rbio.Response { return ok })
		if err != nil {
			return nil, nil, err
		}
		conn, err := netmux.DialTCP(srv.Addr(), nil)
		if err != nil {
			closing(srv)()
			return nil, nil, err
		}
		ctx, req := context.Background(), &rbio.Request{Type: rbio.MsgPing}
		return func(int) error { _, err := conn.Call(ctx, req); return err }, closing(conn, srv), nil
	}},
	{name: "rbio.request_codec", iters: 200000, setup: func() (func(int) error, func(), error) {
		req := &rbio.Request{Type: rbio.MsgGetPage, Page: 4711, LSN: 123456, Consumer: "primary"}
		var buf []byte
		return func(int) error {
			buf = rbio.AppendRequest(buf[:0], req)
			_, err := rbio.DecodeRequest(buf)
			return err
		}, func() {}, nil
	}},
	{name: "rbio.response_codec", iters: 20000, setup: func() (func(int) error, func(), error) {
		resp := &rbio.Response{Status: rbio.StatusOK, LSN: 123456, Payload: make([]byte, page.Size)}
		var buf []byte
		return func(int) error {
			buf = rbio.AppendResponse(buf[:0], resp)
			_, err := rbio.DecodeResponse(buf)
			return err
		}, func() {}, nil
	}},
	{name: "pageserver.getpage", iters: 200000, setup: func() (func(int) error, func(), error) {
		// A one-page-server cluster on Instant devices; the server is
		// stopped before measuring so its pull and checkpoint loops are
		// quiet. A stopped server still serves its cached pages.
		cl, err := cluster.New(cluster.Config{Name: "probe", LZProfile: simdisk.Instant,
			LocalSSD: simdisk.Instant, Net: rbio.NewInstantNetwork(),
			XStore: xstore.Config{Profile: simdisk.Instant}})
		if err != nil {
			return nil, nil, err
		}
		e := cl.Primary().Engine
		if err := e.CreateTable("t"); err != nil {
			cl.Close()
			return nil, nil, err
		}
		tx := e.Begin()
		var kb [8]byte
		for id := 0; id < 64; id++ {
			if err := tx.Put("t", cdbKey(&kb, id), probeValue(id)); err != nil {
				cl.Close()
				return nil, nil, err
			}
		}
		if err := tx.Commit(); err != nil {
			cl.Close()
			return nil, nil, err
		}
		if err := cl.WaitForCatchUp(10 * time.Second); err != nil {
			cl.Close()
			return nil, nil, err
		}
		srv := cl.PageServers()[0]
		srv.Stop()
		ctx := context.Background()
		return func(int) error { _, err := srv.GetPage(ctx, engine.MetaPage, 0); return err },
			cl.Close, nil
	}},
}

// walBytesPerRecord is the encoded size of the probe block per record.
func walBytesPerRecord() (float64, error) {
	f, err := getFixture()
	if err != nil {
		return 0, err
	}
	blk := f.block(wal.NewBuilder(1, page.Partitioning{}))
	return float64(blk.EncodedSize()) / float64(len(f.recs)), nil
}

// measure runs op iters times after a short warm-up and returns the mean
// time and allocations per call.
func (p *probe) measure(iters int) (nsOp, allocsOp float64, err error) {
	op, done, err := p.setup()
	if err != nil {
		return 0, 0, fmt.Errorf("probe %s: %w", p.name, err)
	}
	defer done()
	for i := 0; i < 64; i++ {
		if err := op(i); err != nil {
			return 0, 0, fmt.Errorf("probe %s: %w", p.name, err)
		}
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < iters; i++ {
		if err := op(64 + i); err != nil {
			return 0, 0, fmt.Errorf("probe %s: %w", p.name, err)
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	n := float64(iters)
	return float64(elapsed.Nanoseconds()) / n, float64(after.Mallocs-before.Mallocs) / n, nil
}

// runProbes runs every standalone probe, at scale times its iteration count,
// and records its metrics.
func runProbes(res *result, scale float64) error {
	for i := range probes {
		p := &probes[i]
		iters := int(float64(p.iters) * scale)
		if iters < 100 {
			iters = 100
		}
		ns, allocs, err := p.measure(iters)
		if err != nil {
			return err
		}
		res.set(p.name+"_ns_op", ns, "ns/op")
		if p.allocs {
			res.set(p.name+"_allocs_op", allocs, "allocs/op")
		}
	}
	bpr, err := walBytesPerRecord()
	if err != nil {
		return err
	}
	res.set("wal.bytes_per_record", bpr, "B")
	return nil
}
