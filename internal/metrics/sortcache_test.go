package metrics

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"negotiator/internal/sim"
)

// refStats is the brute-force reference for FCTStats: it keeps samples in
// recording order and sorts a fresh copy on every query.
type refStats struct{ all, mice []sim.Duration }

func (r *refStats) record(size int64, fct sim.Duration) {
	r.all = append(r.all, fct)
	if size < MiceFlowBytes {
		r.mice = append(r.mice, fct)
	}
}

func sortedCopy(xs []sim.Duration) []sim.Duration {
	c := slices.Clone(xs)
	slices.Sort(c)
	return c
}

// TestPerClassSortMatchesReference interleaves Record, Merge,
// RestoreSamples and every order statistic at random, checking each query
// against a reference that sorts from scratch: the per-class sortedness
// flags must never serve a stale order.
func TestPerClassSortMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var s FCTStats
		var ref refStats
		sample := func() (int64, sim.Duration) {
			size := int64(rng.Intn(3 * MiceFlowBytes)) // about one third mice
			return size, sim.Duration(rng.Intn(1e6))
		}
		for op := 0; op < 400; op++ {
			switch k := rng.Intn(8); k {
			case 0:
				size, fct := sample()
				s.Record(size, fct)
				ref.record(size, fct)
			case 1:
				// Merge a small shard, sometimes one holding no mice or
				// nothing at all.
				var o FCTStats
				for i, n := 0, rng.Intn(6); i < n; i++ {
					size, fct := sample()
					if rng.Intn(2) == 0 {
						size += MiceFlowBytes
					}
					o.Record(size, fct)
					ref.record(size, fct)
				}
				if rng.Intn(3) == 0 {
					o.P(50) // a sorted source merges like an unsorted one
				}
				s.Merge(&o)
			case 2:
				if rng.Intn(10) == 0 {
					all, mice := s.Samples()
					// Reverse the recorded order: restored order must
					// not matter to any statistic.
					all, mice = slices.Clone(all), slices.Clone(mice)
					slices.Reverse(all)
					slices.Reverse(mice)
					s.RestoreSamples(all, mice)
					ref.all, ref.mice = all, mice
				}
			case 3:
				p := float64(rng.Intn(101))
				if got, want := s.P(p), percentile(sortedCopy(ref.all), p); got != want {
					t.Fatalf("seed %d op %d: P(%v) = %v, want %v", seed, op, p, got, want)
				}
			case 4:
				p := float64(rng.Intn(101))
				if got, want := s.MiceP(p), percentile(sortedCopy(ref.mice), p); got != want {
					t.Fatalf("seed %d op %d: MiceP(%v) = %v, want %v", seed, op, p, got, want)
				}
			case 5:
				if got, want := s.Max(), percentile(sortedCopy(ref.all), 100); got != want {
					t.Fatalf("seed %d op %d: Max = %v, want %v", seed, op, got, want)
				}
			case 6:
				pts := 2 + rng.Intn(30)
				if got, want := s.MiceCDF(pts), cdf(sortedCopy(ref.mice), pts); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d op %d: MiceCDF(%d) = %v, want %v", seed, op, pts, got, want)
				}
			case 7:
				if s.Count() != len(ref.all) || s.MiceCount() != len(ref.mice) ||
					s.Mean() != mean(ref.all) || s.MiceMean() != mean(ref.mice) {
					t.Fatalf("seed %d op %d: counts or means diverge from the reference", seed, op)
				}
			}
		}
	}
}

// TestMiceQueriesLeaveAllUnsorted: a mice-only readout sorts the mice and
// nothing else, and an all-flow readout sorts all flows and nothing else.
func TestMiceQueriesLeaveAllUnsorted(t *testing.T) {
	var s FCTStats
	for _, x := range []sim.Duration{50, 40, 30, 20, 10} {
		s.Record(1, x)             // mouse
		s.Record(MiceFlowBytes, x) // elephant
	}
	s.MiceCDF(4)
	s.MiceP(99)
	all, mice := s.Samples()
	if slices.IsSorted(all) || !slices.IsSorted(mice) {
		t.Fatalf("after mice queries: all %v (want recording order), mice %v (want sorted)", all, mice)
	}
	var u FCTStats
	for _, x := range []sim.Duration{50, 40, 30} {
		u.Record(1, x)
	}
	u.P(50)
	u.Max()
	all, mice = u.Samples()
	if !slices.IsSorted(all) || slices.IsSorted(mice) {
		t.Fatalf("after all-flow queries: all %v (want sorted), mice %v (want recording order)", all, mice)
	}
}
