// Package tpce implements a scaled-down TPC-E-flavoured workload, used by
// the paper's Table 4 experiment: the cache-hit-rate measurement on a 30 TB
// trading database where the compute cache is only ~1% of the data.
//
// Only the shape matters for that experiment: a brokerage schema
// (customers, accounts, trades), a transaction mix dominated by reads of
// recent trades and hot customers, and the strong access skew
// characteristic of TPC-E — which is exactly why a 1% cache still fields
// ~32% of reads in the paper.
package tpce

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"socrates/internal/engine"
	"socrates/internal/metrics"
	"socrates/internal/txn"
	"socrates/internal/workload"
)

// Table names.
const (
	tableCustomers = "tpce_customers"
	tableAccounts  = "tpce_accounts"
	tableTrades    = "tpce_trades"
)

// brokerage holds generator parameters.
type brokerage struct {
	customers int
	// accountsPer customer and initial TradesPer account.
	accountsPer, tradesPer int
	zipfS                  float64
}

// New creates a workload with the given customer count.
func New(customers int) *brokerage {
	return &brokerage{customers: customers, accountsPer: 2, tradesPer: 4, zipfS: 1.08}
}

func key(i int) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(i))
	return b[:]
}

// Setup creates and loads the schema.
func (w *brokerage) Setup(e *engine.Engine) error {
	for _, t := range []string{tableCustomers, tableAccounts, tableTrades} {
		if err := e.CreateTable(t); err != nil {
			return err
		}
	}
	r := rand.New(rand.NewSource(7))
	load := func(table string, n, size int) error {
		const batch = 100
		for base := 0; base < n; base += batch {
			tx := e.Begin()
			for i := base; i < base+batch && i < n; i++ {
				buf := make([]byte, size)
				r.Read(buf)
				if err := tx.Put(table, key(i), buf); err != nil {
					tx.Abort()
					return err
				}
			}
			if err := tx.Commit(); err != nil {
				return err
			}
		}
		return nil
	}
	if err := load(tableCustomers, w.customers, 128); err != nil {
		return err
	}
	if err := load(tableAccounts, w.customers*w.accountsPer, 96); err != nil {
		return err
	}
	return load(tableTrades, w.customers*w.accountsPer*w.tradesPer, 160)
}

// client is one driver thread.
type client struct {
	w       *brokerage
	e       *engine.Engine
	meter   *metrics.CPUMeter
	rng     *rand.Rand
	zipf    *rand.Zipf
	tradeID int
	id      int
}

// NewClient builds driver thread id bound to the engine.
func (w *brokerage) NewClient(e *engine.Engine, meter *metrics.CPUMeter, id int) *client {
	r := rand.New(rand.NewSource(int64(id)*104729 + 7))
	max := uint64(w.customers - 1)
	if max == 0 {
		max = 1
	}
	return &client{
		w: w, e: e, meter: meter, rng: r,
		zipf: rand.NewZipf(r, w.zipfS, 4, max),
		id:   id,
	}
}

func (c *client) hotCustomer() int { return int(c.zipf.Uint64()) }

// Run executes one transaction of the TPC-E-flavoured mix:
// trade-lookup 45%, customer-position 30%, market-watch 10%, trade-order
// 15% (the write share of TPC-E is ~15-20%).
func (c *client) Run() (workload.Outcome, error) {
	x := c.rng.Intn(100)
	start := time.Now()
	var err error
	kind := workload.Read
	switch {
	case x < 45:
		c.charge(400 * time.Microsecond)
		err = c.tradeLookup()
	case x < 75:
		c.charge(600 * time.Microsecond)
		err = c.customerPosition()
	case x < 85:
		c.charge(1500 * time.Microsecond)
		err = c.marketWatch()
	default:
		kind = workload.Write
		c.charge(900 * time.Microsecond)
		err = c.tradeOrder()
	}
	return workload.Outcome{Kind: kind, Latency: time.Since(start),
		Aborted: errors.Is(err, txn.ErrWriteConflict)}, err
}

func (c *client) charge(d time.Duration) {
	if c.meter != nil {
		c.meter.Charge(d)
	}
}

// tradeLookup reads a handful of trades of a hot customer's account.
func (c *client) tradeLookup() error {
	tx := c.e.BeginRO()
	defer tx.Abort()
	acct := c.hotCustomer()*c.w.accountsPer + c.rng.Intn(c.w.accountsPer)
	base := acct * c.w.tradesPer
	for i := 0; i < 3; i++ {
		if _, _, err := tx.Get(tableTrades, key(base+c.rng.Intn(c.w.tradesPer))); err != nil {
			return err
		}
	}
	return nil
}

// customerPosition reads a customer and all their accounts.
func (c *client) customerPosition() error {
	tx := c.e.BeginRO()
	defer tx.Abort()
	cust := c.hotCustomer()
	if _, _, err := tx.Get(tableCustomers, key(cust)); err != nil {
		return err
	}
	for a := 0; a < c.w.accountsPer; a++ {
		if _, _, err := tx.Get(tableAccounts, key(cust*c.w.accountsPer+a)); err != nil {
			return err
		}
	}
	return nil
}

// marketWatch scans a range of trades (analytic-ish read).
func (c *client) marketWatch() error {
	tx := c.e.BeginRO()
	defer tx.Abort()
	lo := c.hotCustomer() * c.w.accountsPer * c.w.tradesPer
	count := 0
	return tx.Scan(tableTrades, key(lo), key(lo+64), func(k, v []byte) bool {
		count++
		return count < 64
	})
}

// tradeOrder inserts a trade and updates the account row.
func (c *client) tradeOrder() error {
	tx := c.e.Begin()
	cust := c.hotCustomer()
	acct := cust*c.w.accountsPer + c.rng.Intn(c.w.accountsPer)
	trade := make([]byte, 160)
	c.rng.Read(trade)
	id := 1_000_000_000 + c.id*10_000_000 + c.tradeID
	c.tradeID++
	if err := tx.Put(tableTrades, key(id), trade); err != nil {
		tx.Abort()
		return err
	}
	balance := make([]byte, 96)
	c.rng.Read(balance)
	if err := tx.Put(tableAccounts, key(acct), balance); err != nil {
		tx.Abort()
		return err
	}
	return tx.Commit()
}

var _ workload.Runner = (*client)(nil)

var _ = fmt.Sprintf
