package match

import (
	"testing"
	"testing/quick"

	"negotiator/internal/sim"
)

// TestRingPickMaskEquivalentToPick pins the property the base matcher's
// word-scan arbitration rests on: PickMask over a candidate bitmask, and
// PickMaskSum over the same mask plus its one-bit-per-word summary, pick
// exactly what Pick with an is-set predicate picks, from any pointer
// position. Rings up to a few thousand positions span several summary
// words, so the summary's skip and wrap paths are exercised too.
func TestRingPickMaskEquivalentToPick(t *testing.T) {
	f := func(seed int64, nRaw uint8, wide bool, rounds uint8) bool {
		n := int(nRaw%130) + 1
		if wide {
			n *= 37
		}
		rng := sim.NewRNG(seed)
		ring := NewRing(n, rng)
		members := make([]bool, n)
		mask := make([]uint64, (n+63)>>6)
		sum := make([]uint64, (len(mask)+63)>>6)
		for r := 0; r < int(rounds%50)+1; r++ {
			pos := rng.Intn(n)
			members[pos] = !members[pos]
			mask[pos>>6] ^= 1 << (uint(pos) & 63)
			w := pos >> 6
			if mask[w] != 0 {
				sum[w>>6] |= 1 << (uint(w) & 63)
			} else {
				sum[w>>6] &^= 1 << (uint(w) & 63)
			}
			want := ring.Pick(func(p int) bool { return members[p] })
			if got := ring.PickMask(mask); got != want {
				return false
			}
			if got := ring.PickMaskSum(mask, sum); got != want {
				return false
			}
			if want >= 0 {
				ring.Advance(want)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func BenchmarkRingPick128(b *testing.B) {
	ring := NewRing(128, nil)
	members := make([]bool, 128)
	for i := 0; i < 128; i += 17 {
		members[i] = true
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w := ring.Pick(func(p int) bool { return members[p] })
		ring.Advance(w)
	}
}
