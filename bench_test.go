// BenchmarkPaper regenerates the paper's evaluation (§7 and Appendix A): one
// sub-benchmark per entry of experiments.All, each run at a reduced scale
// with the experiment's named values reported as custom benchmark metrics
// and its table logged, so
//
//	go test -bench=. -benchmem
//
// prints the whole evaluation. cmd/socrates-bench runs the same experiments
// at larger scale.
package socrates

import (
	"testing"
	"time"

	"socrates/internal/experiments"
)

func BenchmarkPaper(b *testing.B) {
	// Bounded windows; socrates-bench uses larger ones for tighter numbers.
	o := experiments.Options{
		Measure: 800 * time.Millisecond,
		WarmUp:  200 * time.Millisecond,
		SF:      600,
		Threads: 32,
	}
	for _, e := range experiments.All {
		b.Run(e.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rep, err := e.Run(o)
				if err != nil {
					b.Fatal(err)
				}
				if i > 0 {
					continue
				}
				for _, v := range rep.Values {
					b.ReportMetric(v.V, v.Name)
				}
				b.Logf("\n%s", rep)
				if rep.Shape != nil {
					b.Errorf("shape lost: %v", rep.Shape)
				}
			}
		})
	}
}
