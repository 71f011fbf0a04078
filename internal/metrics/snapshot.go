// Checkpoint accessors: the accumulators keep their fields private (the
// engines may only feed them through Record/Observe/Deliver), so the
// snapshot subsystem gets explicit state getters and setters here. Every
// derived statistic either sorts first (FCTStats) or is a commutative sum
// (Goodput, Ratio), which is what lets a restore concentrate merged
// samples into a single shard without changing any queried result.
package metrics

import (
	"negotiator/internal/sim"
	"negotiator/internal/snap"
)

// Samples exposes the raw recorded FCT samples: in recording order until
// an order statistic sorts a class in place.
func (s *FCTStats) Samples() (all, mice []sim.Duration) { return s.all, s.mice }

// RestoreSamples replaces the recorded samples. The sort cache resets, so
// percentile and CDF queries re-sort — restored sample order is
// irrelevant to every derived statistic.
func (s *FCTStats) RestoreSamples(all, mice []sim.Duration) {
	s.all = append(s.all[:0], all...)
	s.mice = append(s.mice[:0], mice...)
	s.allSorted, s.miceSorted = false, false
}

// PerToR exposes the per-destination delivered byte counts.
func (g *Goodput) PerToR() []int64 { return g.perToR }

// RestorePerToR replaces the per-destination byte counts and recomputes
// the total. The length must match the accumulator's ToR count.
func (g *Goodput) RestorePerToR(perToR []int64) {
	copy(g.perToR, perToR)
	g.total = 0
	for _, b := range g.perToR {
		g.total += b
	}
}

// State exposes a drain buffer's simulation-time state (the drain rate is
// configuration, not state).
func (b *DrainBuffer) State() (last sim.Time, backlog, peak int64) {
	return b.last, b.backlog, b.peak
}

// RestoreState sets a drain buffer's simulation-time state.
func (b *DrainBuffer) RestoreState(last sim.Time, backlog, peak int64) {
	b.last, b.backlog, b.peak = last, backlog, peak
}

// Encode appends the observation history to a checkpoint payload: the
// observation count, every numerator, then every denominator.
func (r *Ratio) Encode(enc *snap.Enc) {
	enc.U32(uint32(len(r.num)))
	for _, v := range r.num {
		enc.I64(v)
	}
	for _, v := range r.den {
		enc.I64(v)
	}
}

// Decode replaces the observation history with one Encode wrote. A
// decode error leaves the history untouched.
func (r *Ratio) Decode(d *snap.Dec) error {
	n := int(d.U32())
	num := make([]int64, n)
	den := make([]int64, n)
	for i := range num {
		num[i] = d.I64()
	}
	for i := range den {
		den[i] = d.I64()
	}
	if err := d.Err(); err != nil {
		return err
	}
	r.num, r.den = num, den
	return nil
}
