package obs

import (
	"context"
	"testing"
	"time"
)

// BenchmarkPlaneRecord counts what each plane's hot record call costs, one
// sub-benchmark per call; run it with -benchmem. Every plane is always on,
// so these per-call lines are the planes' overhead budget.
func BenchmarkPlaneRecord(b *testing.B) {
	b.Run("FlightRecorder.Record", func(b *testing.B) {
		f := NewFlightRecorder(0)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			f.Record(TierLZ, "lz.flush", uint64(i), time.Microsecond, "")
		}
	})
	b.Run("WaitRecorder.Observe_nil_ctx", func(b *testing.B) {
		rec := NewWaitSet().Tier(TierCompute)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rec.Observe(nil, WaitDiskWrite, time.Microsecond)
		}
	})
	// A wait three spans deep (statement, commit, harden) lands on each
	// of the three: span waits are inclusive.
	b.Run("WaitRecorder.Observe_span_depth3", func(b *testing.B) {
		rec := NewWaitSet().Tier(TierCompute)
		tr := NewTracer()
		ctx := context.Background()
		for _, name := range []string{"sql.exec", "engine.commit", "bench"} {
			var span *Span
			ctx, span = tr.StartSpan(ctx, TierCompute, name)
			defer span.End()
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rec.Observe(ctx, WaitCommitHarden, time.Microsecond)
		}
	})
	b.Run("Watermark.Publish", func(b *testing.B) {
		w := NewWatermarkSet().Watermark(WMHardened, "")
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			w.Publish(uint64(i + 1))
		}
	})
	b.Run("Counter.Inc", func(b *testing.B) {
		c := NewRegistry().Counter("bench.count")
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.Inc()
		}
	})
	b.Run("Histogram.Observe", func(b *testing.B) {
		h := NewRegistry().Histogram("bench.latency")
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h.Observe(time.Duration(i&1023) * time.Microsecond)
		}
	})
}
