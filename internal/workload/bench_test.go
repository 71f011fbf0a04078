package workload

import (
	"testing"

	"negotiator/internal/sim"
)

// BenchmarkPoissonNext measures arrival generation (exponential draw, CDF
// inversion, endpoint selection) — called hundreds of thousands of times
// per simulated millisecond at full load.
func BenchmarkPoissonNext(b *testing.B) {
	g := NewPoisson(Hadoop(), 128, 1.0, sim.Gbps(400), 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Next()
	}
}

// BenchmarkCDFSample isolates the log-linear inverse-transform sampling.
func BenchmarkCDFSample(b *testing.B) {
	d := WebSearch()
	rng := sim.NewRNG(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d.Sample(rng)
	}
}

// BenchmarkIncastMixNext measures the incast pump of the paper's Figure 13a
// mix (degree-20 events of 1 KB flows at 128 ToRs).
func BenchmarkIncastMixNext(b *testing.B) {
	g := NewIncastMix(128, 20, 1000, 0.02, sim.Gbps(400), 1, 9)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Next()
	}
}
