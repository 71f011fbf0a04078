package negotiator_test

import (
	"testing"

	"negotiator"
)

// The event-skip and incremental-matching cross-checks: both
// optimizations are on by default and claim semantic invisibility, so
// every golden combination must produce byte-identical Summary and
// MiceCDF output with them forced off. These tests pin the claim directly
// (fingerprint equality within one process), complementing the golden
// corpus, which locks the default (optimized) output across commits.

// TestEventSkipEquivalence: skip-on == skip-off across the full golden
// matrix. Each combination runs twice — once with the event-skip run loop
// (the default) and once ticking every round — and the fingerprints must
// match exactly: same FCT histograms, same ledger, same match ratio, same
// mice CDF.
func TestEventSkipEquivalence(t *testing.T) {
	for _, c := range fingerprintCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			on := c.spec
			on.DisableEventSkip = false
			off := c.spec
			off.DisableEventSkip = true
			if got, want := fingerprint(t, on), fingerprint(t, off); got != want {
				t.Errorf("event-skip changes results\nskip: %.400s\ntick: %.400s", got, want)
			}
		})
	}
}

// TestIncrementalMatchEquivalence: cached-request replay == from-scratch
// request sweeps across the golden matrix. The incremental side also runs
// with CheckInvariants, so every replayed emission is additionally
// compared element-wise against a shadow fresh sweep inside the engine
// (the per-epoch incremental == scratch assertion). CI runs this under
// -race with -cpu 1,2,4.
func TestIncrementalMatchEquivalence(t *testing.T) {
	for _, c := range fingerprintCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			inc := c.spec
			inc.CheckInvariants = true
			scratch := c.spec
			if got, want := fingerprint(t, inc), builtFingerprint(t, scratch, negotiator.BuildScratchRequests); got != want {
				t.Errorf("incremental matching changes results\nincremental: %.400s\nscratch:     %.400s", got, want)
			}
		})
	}
}
