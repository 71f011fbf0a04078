package workload

import (
	"testing"

	"negotiator/internal/sim"
)

// incastMixReference rebuilds IncastMix's first n arrivals from one
// NewIncast call per event, drawing the event's destination, seed and
// inter-arrival gap from a generator-level RNG in the same order.
func incastMixReference(t *testing.T, tors, degree int, size int64, mean sim.Duration, firstTag int, seed int64, n int) []Arrival {
	t.Helper()
	rng := sim.NewRNG(seed)
	at := sim.Time(rng.ExpDuration(mean))
	tag := firstTag
	var want []Arrival
	for len(want) < n {
		dst := rng.Intn(tors)
		ev, err := NewIncast(tors, dst, degree, size, at, tag, int64(rng.Uint64()))
		if err != nil {
			t.Fatal(err)
		}
		for a, ok := ev.Next(); ok; a, ok = ev.Next() {
			want = append(want, a)
		}
		tag++
		at = at.Add(rng.ExpDuration(mean))
	}
	return want[:n]
}

// TestIncastMixMatchesPerEventIncast: refilling one event scratch in place
// must emit exactly the stream that building a fresh Incast per event did.
func TestIncastMixMatchesPerEventIncast(t *testing.T) {
	cases := []struct {
		name         string
		tors, degree int
		size         int64
		frac         float64
		seed         int64
	}{
		{"paper", 128, 20, 1000, 0.02, 9},
		{"full-fan-in", 16, 15, 800, 0.1, 3},
		{"degree-one", 4, 1, 50, 0.5, 11},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			const n = 5000
			g := NewIncastMix(tc.tors, tc.degree, tc.size, tc.frac, sim.Gbps(400), 7, tc.seed)
			want := incastMixReference(t, tc.tors, tc.degree, tc.size, g.mean, 7, tc.seed, n)
			for i, w := range want {
				got, ok := g.Next()
				if !ok || got != w {
					t.Fatalf("arrival %d: got %+v ok=%v, want %+v", i, got, ok, w)
				}
			}
		})
	}
}

// TestIncastMixRejectsOversizedDegree: a degree no event can satisfy
// exhausts the generator instead of emitting a short event.
func TestIncastMixRejectsOversizedDegree(t *testing.T) {
	g := NewIncastMix(8, 8, 1000, 0.02, sim.Gbps(400), 1, 1)
	for i := 0; i < 3; i++ {
		if a, ok := g.Next(); ok {
			t.Fatalf("degree 8 over 8 ToRs emitted %+v", a)
		}
	}
}

// TestIncastMixNextZeroAlloc pins the allocation-free pump: once the first
// event has sized the scratch, later events reuse it.
func TestIncastMixNextZeroAlloc(t *testing.T) {
	g := NewIncastMix(128, 20, 1000, 0.02, sim.Gbps(400), 1, 9)
	g.Next()
	// 1000 draws span 50 events of 20 arrivals each.
	if allocs := testing.AllocsPerRun(1000, func() { g.Next() }); allocs != 0 {
		t.Errorf("IncastMix.Next allocates %v per call after the first event, want 0", allocs)
	}
}
