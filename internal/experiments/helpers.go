package experiments

import (
	"socrates/internal/cdb"
	"socrates/internal/cluster"
	"socrates/internal/engine"
	"socrates/internal/fcb"
	"socrates/internal/tpce"
	"socrates/internal/workload"
)

// scratchEngine builds a throwaway in-memory engine for sizing databases;
// the returned func reports the pages allocated so far.
func scratchEngine() (*engine.Engine, func() int) {
	e, err := engine.Create(engine.Config{
		Pages: fcb.NewMemFile(),
		Log:   engine.NewMemPipeline(),
	})
	if err != nil {
		panic("experiments: scratch engine: " + err.Error())
	}
	return e, func() int { return e.AllocatedPages() }
}

// estimateTPCEDataPages sizes a TPC-E database.
func estimateTPCEDataPages(customers int) int {
	e, pages := scratchEngine()
	w := tpce.New(customers)
	if err := w.Setup(e); err != nil {
		return 64
	}
	return pages()
}

// estimateCDBDataPages sizes a CDB database by loading it into a throwaway
// in-memory engine and reading the allocator cursor.
func estimateCDBDataPages(sf int) int {
	e, pages := scratchEngine()
	w := cdb.New(sf)
	if err := w.Setup(e); err != nil {
		return 64
	}
	return pages()
}

// tpceHitPct loads the TPC-E workload onto the deployment, drives it, and
// reports the primary's cache hit rate in percent.
func tpceHitPct(s *cluster.Cluster, customers int, o Options) (float64, error) {
	w := tpce.New(customers)
	if err := w.Setup(s.Primary().Engine); err != nil {
		return 0, err
	}
	cache := s.Primary().Pages().Cache()
	cache.ResetStats()
	cfg := o.window(16)
	cfg.Meter = s.PrimaryMeter
	workload.Drive(func(id int) workload.Runner {
		return w.NewClient(s.Primary().Engine, s.PrimaryMeter, id)
	}, cfg)
	return 100 * cache.HitRate(), poisoned("t4-soc", s.Primary().Engine)
}
