package sim

import "math"

// RNG is a small, fast, deterministic pseudo-random number generator
// (xoshiro256** seeded via splitmix64). Every stochastic component of the
// simulator owns its own RNG derived from the run seed, so results are
// reproducible regardless of iteration order and independent of math/rand
// version changes.
//
// The zero value is not usable; construct with NewRNG or call Seed.
type RNG struct {
	s [4]uint64
}

// NewRNG returns a generator seeded from seed. Distinct seeds yield
// independent streams.
func NewRNG(seed int64) *RNG {
	r := &RNG{}
	r.Seed(seed)
	return r
}

// Seed resets r to the stream NewRNG(seed) returns, so a component that
// draws from many short-lived streams can reuse one RNG value instead of
// allocating a generator per stream.
func (r *RNG) Seed(seed int64) {
	x := uint64(seed)
	for i := range r.s {
		// splitmix64 step.
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
}

// Split returns a new independent generator derived from r's stream,
// perturbed by id. Use it to hand each component (ToR, workload source,
// ring) its own stream.
func (r *RNG) Split(id int64) *RNG {
	return NewRNG(int64(r.Uint64() ^ (uint64(id) * 0x9e3779b97f4a7c15)))
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	s := &r.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn called with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// ExpDuration returns an exponentially distributed duration with the given
// mean, for Poisson arrival processes. The result is at least 1 ns so that
// arrival sequences strictly advance.
func (r *RNG) ExpDuration(mean Duration) Duration {
	if mean <= 0 {
		return 1
	}
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	d := Duration(-math.Log(u) * float64(mean))
	if d < 1 {
		d = 1
	}
	return d
}

// Perm fills p with a uniform random permutation of [0, len(p)).
func (r *RNG) Perm(p []int) {
	for i := range p {
		p[i] = i
	}
	for i := len(p) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}
