package main

import "testing"

// BenchmarkProbes exposes the standalone layer probes to the standard
// toolchain: go test -run '^$' -bench . -benchmem ./bench
func BenchmarkProbes(b *testing.B) {
	for i := range probes {
		p := &probes[i]
		b.Run(p.name, func(b *testing.B) {
			op, done, err := p.setup()
			if err != nil {
				b.Fatal(err)
			}
			defer done()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := op(i); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
