package criteo

import (
	"math"

	"dlrmcomp/internal/tensor"
)

// Zipf samples from a bounded Zipf distribution over {0, 1, ..., imax} with
// P(k) ∝ 1/(1+k)^s, using Hörmann's rejection-inversion method (the same
// algorithm as math/rand.Zipf) but driven by the deterministic tensor.RNG so
// dataset generation is reproducible without math/rand's global state.
type Zipf struct {
	rng          *tensor.RNG
	imax         float64
	v            float64
	q            float64
	oneminusQ    float64
	oneminusQinv float64
	hxm          float64
	hx0minusHxm  float64
	s            float64
}

func (z *Zipf) h(x float64) float64 {
	return math.Exp(z.oneminusQ*math.Log(z.v+x)) * z.oneminusQinv
}

func (z *Zipf) hinv(x float64) float64 {
	return math.Exp(z.oneminusQinv*math.Log(z.oneminusQ*x)) - z.v
}

// NewZipf builds a sampler with skew s > 1 producing values in [0, card).
// A table with a single row yields the constant 0.
func NewZipf(rng *tensor.RNG, s float64, card uint64) *Zipf {
	if s <= 1 {
		panic("criteo: Zipf skew must be > 1")
	}
	if card < 1 {
		panic("criteo: Zipf cardinality must be >= 1")
	}
	z := &Zipf{rng: rng, imax: float64(card - 1), v: 1, q: s}
	z.oneminusQ = 1 - z.q
	z.oneminusQinv = 1 / z.oneminusQ
	z.hxm = z.h(z.imax + 0.5)
	z.hx0minusHxm = z.h(0.5) - math.Exp(math.Log(z.v)*(-z.q)) - z.hxm
	z.s = 1 - z.hinv(z.h(1.5)-math.Exp(-z.q*math.Log(z.v+1.0)))
	return z
}

// Next returns the next sample in [0, card).
func (z *Zipf) Next() uint64 {
	if z.imax == 0 {
		return 0
	}
	for {
		r := z.rng.Float64()
		ur := z.hxm + float64(r*z.hx0minusHxm)
		x := z.hinv(ur)
		k := math.Floor(x + 0.5)
		if k-x <= z.s {
			return uint64(k)
		}
		if ur >= z.h(k+0.5)-math.Exp(-math.Log(k+z.v)*z.q) {
			return uint64(k)
		}
	}
}
