package negotiator

import "slices"

// BuildScratchRequests builds s with every REQUEST sweep run from scratch
// instead of replaying the demand-versioned request cache: the reference
// TestIncrementalMatchEquivalence compares the cache against.
func BuildScratchRequests(s Spec) (Fabric, error) { return s.build(true) }

// SortedFCTs returns every completed flow's FCT in ascending order: the
// whole sample stream behind the Summary's percentiles, elephants
// included (MiceCDF covers mice only).
func SortedFCTs(f Fabric) []Duration {
	all, _ := f.(*facade).core.MergedFCT().Samples()
	return slices.Sorted(slices.Values(all))
}
