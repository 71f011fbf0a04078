package negotiator_test

import (
	"fmt"
	"os"
	"strings"
	"testing"

	negotiator "negotiator"
	"negotiator/internal/workload"
)

// kreplicate replays each arrival of the wrapped generator k times — the
// ungrouped ground truth a flow group of k members must be metrically
// indistinguishable from.
type kreplicate struct {
	g    negotiator.Workload
	k    int
	left int
	cur  workload.Arrival
}

func (r *kreplicate) Next() (workload.Arrival, bool) {
	if r.left == 0 {
		a, ok := r.g.Next()
		if !ok {
			return workload.Arrival{}, false
		}
		r.cur, r.left = a, r.k
	}
	r.left--
	return r.cur, true
}

// permRun runs a permutation workload (8 active pairs on the 16-ToR small
// spec) and renders the comparable Summary+CDF string. grouped selects one
// k-member group record per pair; ungrouped injects k separate identical
// flows per pair.
func permRun(t *testing.T, spec negotiator.Spec, workers, k int, size int64, grouped bool) string {
	t.Helper()
	spec.Workers = workers
	fab, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	w, err := negotiator.PermutationWorkload(spec, 8, size, 0)
	if err != nil {
		t.Fatal(err)
	}
	if grouped {
		if w, err = negotiator.GroupWorkload(w, k); err != nil {
			t.Fatal(err)
		}
	} else {
		w = &kreplicate{g: w, k: k}
	}
	fab.SetWorkload(w)
	fab.RunEpochs(150)
	return fmt.Sprintf("%+v | cdf=%v | fcts=%v", fab.Summary(), fab.MiceCDF(24), negotiator.SortedFCTs(fab))
}

// TestGroupEquivalence is the flow-group acceptance contract, in two
// halves.
//
// golden-k1: threading every golden-matrix workload through the identity
// GroupBy wrapper must reproduce all recorded fingerprints byte for byte —
// the aggregation layer is invisible until a group actually forms.
//
// grouped-fct: on a coalescible workload, one k-member group record must
// produce the exact Summary and FCT sample stream of k separate identical
// flows, at 1 worker and at 16. Delivery here is FIFO over the group's
// bytes (one VOQ per pair; with priority queues on, the member size stays
// within the first PIAS bound so all bytes share one priority FIFO), which
// is the regime where per-member boundary-crossing emission is exact — see
// the README's "Flow groups" subsection for the conditions. The hybrid
// cases cover both of its emitters: mice members ride the fixed-arrival
// round-robin emitter, elephant members the slot-timed scheduled one.
func TestGroupEquivalence(t *testing.T) {
	t.Run("golden-k1", func(t *testing.T) {
		raw, err := os.ReadFile(fingerprintGoldenPath)
		if err != nil {
			t.Fatalf("missing goldens: %v", err)
		}
		want := make(map[string]string)
		for _, line := range strings.Split(strings.TrimRight(string(raw), "\n"), "\n") {
			name, fp, ok := strings.Cut(line, ": ")
			if !ok {
				t.Fatalf("malformed golden line %q", line)
			}
			want[name] = fp
		}
		workerCounts := []int{1, 16}
		if testing.Short() {
			workerCounts = []int{1}
		}
		for _, c := range fingerprintCases() {
			w, ok := want[c.name]
			if !ok {
				t.Fatalf("%s: no recorded golden", c.name)
			}
			for _, workers := range workerCounts {
				spec := c.spec
				spec.Workers = workers
				fab, err := spec.Build()
				if err != nil {
					t.Fatal(err)
				}
				wl, err := negotiator.GroupWorkload(
					negotiator.PoissonWorkload(spec, negotiator.Hadoop, 0.7, spec.Seed+6), 1)
				if err != nil {
					t.Fatal(err)
				}
				fab.SetWorkload(wl)
				fab.RunEpochs(120)
				got := fmt.Sprintf("%+v | cdf=%v", fab.Summary(), fab.MiceCDF(24))
				if got != w {
					t.Errorf("%s (workers=%d): identity GroupBy diverges from golden\n got: %.400s\nwant: %.400s",
						c.name, workers, got, w)
				}
			}
		}
	})

	t.Run("grouped-fct", func(t *testing.T) {
		const k = 5
		for _, tc := range []struct {
			name  string
			plane negotiator.ControlPlaneKind
			pq    bool
			size  int64
		}{
			// PIAS on: members within the first priority bound share one
			// FIFO, so delivery order stays member-sequential.
			{"pias-small-members", negotiator.NegotiaToRPlane, true, 1000},
			// PIAS off: any member size is FIFO end to end.
			{"fifo-large-members", negotiator.NegotiaToRPlane, false, 4920},
			// Hybrid mice members (below the 10 KB split) ride the
			// round-robin lanes.
			{"hybrid-pias-mice-members", negotiator.HybridPlane, true, 1000},
			{"hybrid-fifo-mice-members", negotiator.HybridPlane, false, 4920},
			// Hybrid elephant members ride the negotiated scheduled phase.
			{"hybrid-fifo-elephant-members", negotiator.HybridPlane, false, 20000},
		} {
			t.Run(tc.name, func(t *testing.T) {
				spec := negotiator.SmallSpec()
				spec.ControlPlane = tc.plane
				spec.PriorityQueues = tc.pq
				for _, workers := range []int{1, 16} {
					grouped := permRun(t, spec, workers, k, tc.size, true)
					separate := permRun(t, spec, workers, k, tc.size, false)
					if grouped != separate {
						t.Errorf("workers=%d: grouped run diverges from %d separate flows\n got: %.400s\nwant: %.400s",
							workers, k, grouped, separate)
					}
				}
			})
		}
	})
}
