// Package rng provides a small, deterministic pseudo-random number
// generator used throughout the SFS reproduction.
//
// All simulations must be reproducible from a single seed, so we avoid the
// global state of math/rand and implement splitmix64 (Steele et al.,
// "Fast Splittable Pseudorandom Number Generators", OOPSLA '14) followed by
// an xoshiro256** mixer. The generator is not cryptographically secure and
// is not safe for concurrent use; each simulation component owns its own
// stream, derived via Split.
//
// Split is the load-bearing operation: a parent seeded with S derives
// child streams deterministically, so a workload spec can hand
// independent streams to its duration sampler, app picker, I/O knob,
// and arrival process without their draws interleaving. That is what
// keeps generated traces stable when one consumer starts drawing more
// (or fewer) samples than before — the other streams are unaffected.
// The split order is part of a generator's compatibility contract:
// reordering Split calls changes every downstream trace.
package rng

import "math"

// RNG is a deterministic pseudo-random number generator. The zero value is
// not usable; construct with New.
type RNG struct {
	s [4]uint64
}

// splitmix64 advances a 64-bit state and returns a mixed output. It is used
// only to seed the xoshiro state so that nearby seeds yield unrelated
// streams.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a generator seeded from seed.
func New(seed uint64) *RNG {
	r := &RNG{}
	sm := seed
	for i := range r.s {
		r.s[i] = splitmix64(&sm)
	}
	// xoshiro must not start from the all-zero state.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return r
}

// Split derives an independent child generator. The child's stream is a
// deterministic function of the parent's current state, and the parent is
// advanced, so successive Splits yield distinct children.
func (r *RNG) Split() *RNG {
	return New(r.Uint64() ^ 0xd1342543de82ef95)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly random bits (xoshiro256**).
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Intn returns a uniformly random int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	// Lemire's nearly-divisionless method would be faster; modulo bias is
	// negligible for the n (< 2^32) used in this codebase, but we still
	// reject to keep the distribution exact.
	max := uint64(n)
	limit := (^uint64(0) / max) * max
	for {
		v := r.Uint64()
		if v < limit {
			return int(v % max)
		}
	}
}

// Int63n returns a uniformly random int64 in [0, n). It panics if n <= 0.
func (r *RNG) Int63n(n int64) int64 {
	if n <= 0 {
		panic("rng: Int63n called with n <= 0")
	}
	max := uint64(n)
	limit := (^uint64(0) / max) * max
	for {
		v := r.Uint64()
		if v < limit {
			return int64(v % max)
		}
	}
}

// Float64 returns a uniformly random float64 in [0, 1).
func (r *RNG) Float64() float64 {
	// 53 random mantissa bits.
	return float64(r.Uint64()>>11) / (1 << 53)
}

// ExpFloat64 returns an exponentially distributed float64 with rate 1
// (mean 1), via inverse transform sampling.
func (r *RNG) ExpFloat64() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}

// NormFloat64 returns a standard normal variate using the Marsaglia polar
// method.
func (r *RNG) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		return u * math.Sqrt(-2*math.Log(s)/s)
	}
}

// Shuffle pseudo-randomizes the order of n elements using the provided swap
// function, as in math/rand.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}
