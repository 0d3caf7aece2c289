package tensor

import "math"

// RNG is a small deterministic pseudo-random generator (xorshift64*) used for
// weight initialization and synthetic data. It is reproducible across runs
// and cheap enough to embed per goroutine without locking.
type RNG struct{ state uint64 }

// NewRNG returns a generator seeded with seed (zero is remapped so the
// xorshift state never sticks at the absorbing zero state).
func NewRNG(seed uint64) *RNG {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &RNG{state: seed}
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545F4914F6CDD1D
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / float64(1<<53)
}

// Float32 returns a uniform value in [0, 1).
func (r *RNG) Float32() float32 { return float32(r.Float64()) }

// Intn returns a uniform value in [0, n). Panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("tensor: Intn non-positive bound")
	}
	return int(r.Uint64() % uint64(n))
}

// NormFloat64 returns a standard normal sample (Box–Muller).
func (r *RNG) NormFloat64() float64 {
	for {
		u := r.Float64()
		if u == 0 {
			continue
		}
		v := r.Float64()
		return math.Sqrt(-2*math.Log(u)) * math.Cos(2*math.Pi*v)
	}
}

// FillUniform fills x with uniform values in [lo, hi).
func (r *RNG) FillUniform(x []float32, lo, hi float32) {
	span := hi - lo
	for i := range x {
		x[i] = lo + float32(span*r.Float32())
	}
}

// FillNormal fills x with Gaussian samples of the given mean and stddev.
func (r *RNG) FillNormal(x []float32, mean, std float32) {
	for i := range x {
		x[i] = mean + float32(std*float32(r.NormFloat64()))
	}
}
