package sim

import "math"

// RNG is a small, fast, deterministic pseudo-random generator (splitmix64).
// Every stochastic component of the simulator owns its own RNG stream so
// that adding a component never perturbs the draws of another.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Float64 returns a uniform draw in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform draw in [0, n). n must be positive.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Uint64n returns an unbiased uniform draw in [0, n). n must be positive.
// Unlike Intn's single modulo (kept as-is: its draws are pinned by golden
// artifacts), this rejects the overhanging remainder range, so every value
// is exactly equally likely.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("sim: Uint64n with zero n")
	}
	if n&(n-1) == 0 { // power of two: mask is already unbiased
		return r.Uint64() & (n - 1)
	}
	// Accept only [limit, 2^64): that span is an exact multiple of n
	// long, so the modulo below hits every residue equally often.
	limit := -n % n // == 2^64 mod n in uint64 arithmetic
	for {
		v := r.Uint64()
		if v >= limit {
			return v % n
		}
	}
}

// Exp returns an exponential draw with the given mean.
func (r *RNG) Exp(mean float64) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -mean * math.Log(u)
}

// Split returns a new RNG derived from this one, statistically independent
// for practical purposes. Use it to give sub-components their own streams.
func (r *RNG) Split() *RNG {
	return NewRNG(r.Uint64() ^ 0xA5A5A5A55A5A5A5A)
}
