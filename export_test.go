package negotiator

// BuildScratchRequests builds s with every REQUEST sweep run from scratch
// instead of replaying the demand-versioned request cache: the reference
// TestIncrementalMatchEquivalence compares the cache against.
func BuildScratchRequests(s Spec) (Fabric, error) { return s.build(true) }
