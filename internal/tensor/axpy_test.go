package tensor

import (
	"fmt"
	"math"
	"testing"
)

// axpyValues mixes ordinary numbers with every special the primitive must
// carry unchanged: both zeros, denormals, both infinities (so Inf*0 and
// Inf-Inf produce NaNs mid-run) and the extremes of the normal range.
func axpyValues(rng *RNG, n int) []float32 {
	specials := []float32{
		0, float32(math.Copysign(0, -1)),
		math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
		math.Float32frombits(0x007fffff), // largest denormal
		float32(math.Inf(1)), float32(math.Inf(-1)),
		math.MaxFloat32, -math.MaxFloat32, 1, -1,
	}
	v := make([]float32, n)
	rng.FillNormal(v, 0, 1)
	for i := range v {
		if rng.Intn(3) == 0 {
			v[i] = specials[rng.Intn(len(specials))]
		}
	}
	return v
}

// Quiet NaNs whose payloads tell the operands apart. A multiply or an add
// that meets two NaNs returns one of them (on amd64, its first operand's),
// so a body that orders the operands otherwise than the scalar loop leaves
// a different NaN, and the bitwise comparison sees it.
const (
	nanB    = 0x7fc0b000 // in the source b
	nanCoef = 0x7fc0c000 // in the coefficients
	nanD    = 0xffc0d000 // in the destination rows
)

// withNaNs replaces about one element of v in six with a quiet NaN whose
// payload is base plus the element's index, and returns v.
func withNaNs(rng *RNG, v []float32, base uint32) []float32 {
	for i := range v {
		if rng.Intn(6) == 0 {
			v[i] = math.Float32frombits(base | uint32(i)&0xfff)
		}
	}
	return v
}

const axpyCanary = 12345.5

// canaried returns a fresh copy of src[:n] placed off elements into its own
// backing array (so the data pointer is 4·off bytes past the allocation's
// alignment) with canary elements on both sides.
func canaried(src []float32, off, n int) (buf, s []float32) {
	buf = make([]float32, off+n+4)
	for i := range buf {
		buf[i] = axpyCanary
	}
	s = buf[off : off+n : off+n]
	copy(s, src)
	return buf, s
}

func requireCanaries(t *testing.T, buf []float32, off, n int, label string) {
	t.Helper()
	for i, v := range buf {
		if (i < off || i >= off+n) && v != axpyCanary {
			t.Fatalf("%s: element %d outside the slice was overwritten with %v", label, i-off, v)
		}
	}
}

func requireSameBits(t *testing.T, got, want []float32, label string) {
	t.Helper()
	requireBitwiseEqual(t, FromSlice(1, len(got), got), FromSlice(1, len(want), want), label)
}

// TestAxpyMatchesGo holds every body of Axpy and of the four-row term that
// the host can execute to the pure-Go loops bit for bit, at every length
// through two full 16-element iterations plus every tail, at every 4-byte
// misalignment of every operand, and with NaNs of distinct payloads in b,
// the coefficients and d.
func TestAxpyMatchesGo(t *testing.T) {
	forEachBody(t, func(t *testing.T) {
		rng := NewRNG(7)
		for n := 0; n <= 67; n++ {
			for off := 0; off < 4; off++ {
				label := fmt.Sprintf("n=%d off=%d", n, off)
				_, b := canaried(withNaNs(rng, axpyValues(rng, n), nanB), (off+1)%4, n)
				coef := withNaNs(rng, axpyValues(rng, 4), nanCoef)
				var src, want [4][]float32
				var bufs, got [4][]float32
				for r := range src {
					src[r] = withNaNs(rng, axpyValues(rng, n), nanD)
					want[r] = append([]float32(nil), src[r]...)
					bufs[r], got[r] = canaried(src[r], (off+r)%4, n)
				}

				axpy4RowsGo(want[0], want[1], want[2], want[3], b, 0, coef[0:1], coef[1:2], coef[2:3], coef[3:4], 1, 1, false)
				axpy4Rows(got[0], got[1], got[2], got[3], b, 0, coef[0:1], coef[1:2], coef[2:3], coef[3:4], 1, 1, false)
				for r := range got {
					requireSameBits(t, got[r], want[r], fmt.Sprintf("axpy4Rows %s row %d", label, r))
					requireCanaries(t, bufs[r], (off+r)%4, n, fmt.Sprintf("axpy4Rows %s row %d", label, r))
				}

				want1 := append([]float32(nil), src[0]...)
				buf1, got1 := canaried(src[0], off, n)
				axpy1Go(want1, b, coef[0])
				Axpy(coef[0], b, got1)
				requireSameBits(t, got1, want1, "Axpy "+label)
				requireCanaries(t, buf1, off, n, "Axpy "+label)
			}
		}
	})
}

// TestAxpy4RowsMatchesGo holds the term loop of every body to the same
// oracle: k terms through the primitive must leave what the pure-Go
// four-row loop leaves, for every row length through two full 16-element
// iterations plus every tail, with source rows both packed (stride = n) and
// spaced out, and with each row's coefficients both adjacent (Axpy4Rows,
// Axpy4Skip) and cstride apart (as saxpyRows hands over a column). Half the
// coefficients are zeros of either sign, so the skip meets terms with no,
// some and only zero rows.
func TestAxpy4RowsMatchesGo(t *testing.T) {
	forEachBody(t, func(t *testing.T) {
		rng := NewRNG(8)
		zeros := []float32{0, float32(math.Copysign(0, -1))}
		for n := 0; n <= 50; n++ {
			for _, k := range []int{0, 1, 2, 7, 16} {
				for _, gap := range []int{0, 3} {
					for _, cstride := range []int{1, 3} {
						for _, skip := range []bool{false, true} {
							label := fmt.Sprintf("n=%d k=%d stride=%d cstride=%d skip=%v", n, k, n+gap, cstride, skip)
							off := (n + k) % 4
							stride := n + gap
							_, b := canaried(withNaNs(rng, axpyValues(rng, k*stride), nanB), off, k*stride)
							span := 0
							if k > 0 {
								span = (k-1)*cstride + 1
							}
							var c, want, bufs, got [4][]float32
							for r := range c {
								c[r] = withNaNs(rng, axpyValues(rng, span), nanCoef)
								for p := 0; p < k; p++ {
									if rng.Intn(2) == 0 {
										c[r][p*cstride] = zeros[rng.Intn(2)]
									}
								}
								src := withNaNs(rng, axpyValues(rng, n), nanD)
								want[r] = append([]float32(nil), src...)
								bufs[r], got[r] = canaried(src, (off+r)%4, n)
							}
							axpy4RowsGo(want[0], want[1], want[2], want[3], b, stride, c[0], c[1], c[2], c[3], k, cstride, skip)
							switch {
							case cstride != 1:
								axpy4Rows(got[0], got[1], got[2], got[3], b, stride, c[0], c[1], c[2], c[3], k, cstride, skip)
							case skip:
								Axpy4Skip(c[0], c[1], c[2], c[3], b, stride, got[0], got[1], got[2], got[3])
							default:
								Axpy4Rows(c[0], c[1], c[2], c[3], b, stride, got[0], got[1], got[2], got[3])
							}
							for r := range got {
								requireSameBits(t, got[r], want[r], fmt.Sprintf("%s row %d", label, r))
								requireCanaries(t, bufs[r], (off+r)%4, n, fmt.Sprintf("%s row %d", label, r))
							}
						}
					}
				}
			}
		}
	})
}

// TestAxpy4SkipLeavesZeroRows: in every pattern of zero and non-zero
// coefficients, a zero (of either sign) leaves its row bit for bit as it
// was — x carries an Inf, so a multiplied-in zero would show as NaN — and
// every other row gets exactly the single-row update.
func TestAxpy4SkipLeavesZeroRows(t *testing.T) {
	forEachBody(t, func(t *testing.T) {
		rng := NewRNG(11)
		const n = 13
		x := axpyValues(rng, n)
		x[3] = float32(math.Inf(1))
		zeros := []float32{0, float32(math.Copysign(0, -1))}
		for pattern := 0; pattern < 16; pattern++ {
			var coef [4]float32
			var want, got [4][]float32
			for r := range coef {
				coef[r] = zeros[(pattern+r)%2]
				want[r] = make([]float32, n)
				rng.FillNormal(want[r], 0, 1)
				got[r] = append([]float32(nil), want[r]...)
				if pattern&(1<<r) != 0 {
					coef[r] = float32(r) + 1.5
					axpy1Go(want[r], x, coef[r])
				}
			}
			Axpy4Skip(coef[0:1], coef[1:2], coef[2:3], coef[3:4], x, 0, got[0], got[1], got[2], got[3])
			for r := range got {
				requireSameBits(t, got[r], want[r], fmt.Sprintf("pattern %04b row %d", pattern, r))
			}
		}
	})
}

// TestAxpyShortDestinationPanics: a destination shorter than the source is
// refused by the Go wrapper, before the body has written anything.
func TestAxpyShortDestinationPanics(t *testing.T) {
	const n = 9
	b := make([]float32, n)
	for i := range b {
		b[i] = 1
	}
	mustPanic := func(label string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: no panic", label)
			}
		}()
		fn()
	}
	for short := 0; short < 4; short++ {
		var bufs, d [4][]float32
		for r := range d {
			ln := n
			if r == short {
				ln = n - 1
			}
			bufs[r], d[r] = canaried(make([]float32, ln), 1, ln)
		}
		one := []float32{1}
		mustPanic(fmt.Sprintf("Axpy4Skip short row %d", short), func() { Axpy4Skip(one, one, one, one, b, 0, d[0], d[1], d[2], d[3]) })
		for r := range d {
			for _, v := range d[r] {
				if v != 0 {
					t.Fatalf("Axpy4Skip short row %d: row %d was written before the panic", short, r)
				}
			}
			requireCanaries(t, bufs[r], 1, len(d[r]), fmt.Sprintf("Axpy4Skip short row %d, row %d", short, r))
		}
	}
	buf, d := canaried(make([]float32, n-1), 1, n-1)
	mustPanic("Axpy", func() { Axpy(1, b, d) })
	requireCanaries(t, buf, 1, n-1, "Axpy")

	// Axpy4Rows: a source one element short of its last row, a ragged
	// destination and a ragged coefficient row are all refused up front.
	const k = 3
	c := []float32{1, 1, 1}
	untouched := func(label string, ds [4][]float32) {
		t.Helper()
		for r := range ds {
			for _, v := range ds[r] {
				if v != 0 {
					t.Fatalf("%s: row %d was written before the panic", label, r)
				}
			}
		}
	}
	src := make([]float32, k*n)
	for i := range src {
		src[i] = 1
	}
	var ds [4][]float32
	for r := range ds {
		ds[r] = make([]float32, n)
	}
	mustPanic("Axpy4Rows short source", func() { Axpy4Rows(c, c, c, c, src[:k*n-1], n, ds[0], ds[1], ds[2], ds[3]) })
	untouched("Axpy4Rows short source", ds)
	mustPanic("Axpy4Rows short destination", func() { Axpy4Rows(c, c, c, c, src, n, ds[0], ds[1][:n-1], ds[2], ds[3]) })
	untouched("Axpy4Rows short destination", ds)
	mustPanic("Axpy4Rows short coefficients", func() { Axpy4Rows(c, c, c[:k-1], c, src, n, ds[0], ds[1], ds[2], ds[3]) })
	untouched("Axpy4Rows short coefficients", ds)
}
