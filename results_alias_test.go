package negotiator

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"negotiator/internal/metrics"
)

// mergedFCT returns a merged FCT copy of the kind Summary and MiceCDF
// read from.
func mergedFCT(t *testing.T, f Fabric) *metrics.FCTStats {
	fac, ok := f.(*facade)
	if !ok {
		t.Fatalf("unknown fabric %T", f)
	}
	return fac.core.MergedFCT()
}

// fctReadout is every statistic a readout takes from an accumulator.
type fctReadout struct {
	flows, mice                    int
	mice99p, miceMean, all99p, max Duration
	cdf                            []metrics.CDFPoint
}

func readFCT(s *metrics.FCTStats) fctReadout {
	return fctReadout{s.Count(), s.MiceCount(), s.MiceP(99), s.MiceMean(), s.P(99), s.Max(), s.MiceCDF(24)}
}

// TestResultsDoNotAliasLiveSamples: the merged FCT copy behind Results is
// the fabric's state at the moment it was taken. Querying it (which sorts
// it in place) before or after the run goes on must read the values of
// the Summary taken with it, and must leave the live per-shard samples
// untouched, so the continued run matches one that was never read.
func TestResultsDoNotAliasLiveSamples(t *testing.T) {
	for _, plane := range []ControlPlaneKind{NegotiaToRPlane, ObliviousPlane, HybridPlane} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%v/workers=%d", plane, workers), func(t *testing.T) {
				spec := SmallSpec()
				spec.ControlPlane = plane
				spec.Workers = workers
				build := func() Fabric {
					fab, err := spec.Build()
					if err != nil {
						t.Fatal(err)
					}
					fab.SetWorkload(PoissonWorkload(spec, Hadoop, 0.7, 5))
					return fab
				}
				const first, more = 40, 40
				fab := build()
				fab.RunEpochs(first)
				sum := fab.Summary()
				if sum.MiceFlows == 0 || sum.MiceFlows == sum.Flows {
					t.Fatalf("want both mice and larger flows done by epoch %d, got %+v", first, sum)
				}
				readEarly := mergedFCT(t, fab)
				want := readFCT(readEarly)
				if got := (fctReadout{sum.Flows, sum.MiceFlows, sum.Mice99p, sum.MiceMean, sum.All99p, want.max, fab.MiceCDF(24)}); !reflect.DeepEqual(got, want) {
					t.Fatalf("Results readout %+v disagrees with Summary/MiceCDF %+v", want, got)
				}
				readLate := mergedFCT(t, fab)

				fab.RunEpochs(more)

				// The checkpoint stream carries the samples in recording
				// order, so it also catches a readout that sorted live
				// shard samples in place. Snapshot both runs before any
				// further readout.
				untouched := build()
				untouched.RunEpochs(first + more)
				var got, unread bytes.Buffer
				if err := fab.Snapshot(&got); err != nil {
					t.Fatal(err)
				}
				if err := untouched.Snapshot(&unread); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got.Bytes(), unread.Bytes()) {
					t.Error("reading Results changed the checkpointed state")
				}
				if got, want := fab.Summary(), untouched.Summary(); got != want {
					t.Errorf("reading Results changed the run\n got: %+v\nwant: %+v", got, want)
				}

				// The later readouts above must not have reached the
				// copies taken at the earlier epoch.
				if got := readFCT(readEarly); !reflect.DeepEqual(got, want) {
					t.Errorf("re-queried after %d more epochs: %+v\nwant %+v", more, got, want)
				}
				if got := readFCT(readLate); !reflect.DeepEqual(got, want) {
					t.Errorf("first queried after %d more epochs: %+v\nwant %+v", more, got, want)
				}
			})
		}
	}
}
