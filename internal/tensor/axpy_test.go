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
// four-row loop leaves, for every row length through three full 16-element
// tiles plus every tail, with source rows both packed (stride = n) and
// spaced out, and with each row's coefficients both adjacent (Axpy4Rows,
// MatMul4Rows, Axpy4Skip) and cstride apart (as saxpyRows hands over a
// column). Half the coefficients are zeros of either sign, so the skip
// meets terms with no, some and only zero rows. MatMul4Rows must leave
// what the loop leaves on rows cleared first, whatever the rows held.
func TestAxpy4RowsMatchesGo(t *testing.T) {
	forEachBody(t, func(t *testing.T) {
		rng := NewRNG(8)
		zeros := []float32{0, float32(math.Copysign(0, -1))}
		type mode struct {
			skip, zero bool
		}
		for n := 0; n <= 50; n++ {
			for _, k := range []int{0, 1, 2, 7, 16} {
				for _, gap := range []int{0, 3} {
					for _, cstride := range []int{1, 3} {
						for _, m := range []mode{{false, false}, {true, false}, {false, true}} {
							skip := m.skip
							if m.zero && cstride != 1 {
								continue
							}
							label := fmt.Sprintf("n=%d k=%d stride=%d cstride=%d skip=%v zero=%v", n, k, n+gap, cstride, skip, m.zero)
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
								if m.zero {
									clear(want[r])
								}
								bufs[r], got[r] = canaried(src, (off+r)%4, n)
							}
							axpy4RowsGo(want[0], want[1], want[2], want[3], b, stride, c[0], c[1], c[2], c[3], k, cstride, skip)
							switch {
							case cstride != 1:
								axpy4Rows(got[0], got[1], got[2], got[3], b, stride, c[0], c[1], c[2], c[3], k, cstride, skip)
							case skip:
								Axpy4Skip(&c, b, stride, &got)
							case m.zero:
								MatMul4Rows(&c, b, stride, &got)
							default:
								Axpy4Rows(&c, b, stride, &got)
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
			Axpy4Skip(&[4][]float32{coef[0:1], coef[1:2], coef[2:3], coef[3:4]}, x, 0, &got)
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
		mustPanic(fmt.Sprintf("Axpy4Skip short row %d", short), func() { Axpy4Skip(&[4][]float32{one, one, one, one}, b, 0, &d) })
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
	cs := [4][]float32{c, c, c, c}
	mustPanic("Axpy4Rows short source", func() { Axpy4Rows(&cs, src[:k*n-1], n, &ds) })
	untouched("Axpy4Rows short source", ds)
	mustPanic("MatMul4Rows short destination", func() {
		MatMul4Rows(&cs, src, n, &[4][]float32{ds[0], ds[1][:n-1], ds[2], ds[3]})
	})
	untouched("MatMul4Rows short destination", ds)
	mustPanic("Axpy4Rows short coefficients", func() { Axpy4Rows(&[4][]float32{c, c, c[:k-1], c}, src, n, &ds) })
	untouched("Axpy4Rows short coefficients", ds)
}

// TestTranspose4MatchesGo holds every body of Transpose4 to the Go loop bit
// for bit — NaNs with distinct payloads included, since a transposition
// must move bits, not values — at every row length through three whole 4×4
// blocks plus every tail, at strides from the narrowest on, and at every
// 4-byte misalignment of the rows and of the destination, which it must not
// write outside of its columns.
func TestTranspose4MatchesGo(t *testing.T) {
	forEachBody(t, func(t *testing.T) {
		rng := NewRNG(12)
		for n := 0; n <= 15; n++ {
			for _, stride := range []int{4, 5, 16, 19} {
				for off := 0; off < 4; off++ {
					label := fmt.Sprintf("n=%d stride=%d off=%d", n, stride, off)
					var s [4][]float32
					for r := range s {
						_, s[r] = canaried(withNaNs(rng, axpyValues(rng, n), nanB), (off+r)%4, n)
					}
					size := 0
					if n > 0 {
						size = (n-1)*stride + 4
					}
					init := axpyValues(rng, size)
					want := append([]float32(nil), init...)
					transpose4Go(want, stride, s[0], s[1], s[2], s[3])
					buf, got := canaried(init, off, size)
					Transpose4(got, stride, s[0], s[1], s[2], s[3])
					requireSameBits(t, got, want, label)
					requireCanaries(t, buf, off, size, label)
				}
			}
		}
	})
}

// TestGatherRowsMatchesGo holds every body of GatherRows to the Go loop: the
// same bits copied from every row's span into consecutive rows, nothing
// written past them, and the same finiteness verdict, for rows clean and
// rows holding one Inf or NaN at every position of the vector loop and
// its tail.
func TestGatherRowsMatchesGo(t *testing.T) {
	forEachBody(t, func(t *testing.T) {
		rng := NewRNG(13)
		for _, n := range []int{0, 1, 5, 16, 19, 32, 37} {
			for _, rows := range []int{0, 1, 3} {
				for bad := -1; bad < rows*n; bad++ {
					const off = 2
					src := make([][]float32, rows)
					for b := range src {
						v := make([]float32, off+n+3)
						rng.FillNormal(v, 0, 1)
						src[b] = v
					}
					if bad >= 0 {
						src[bad/n][off+bad%n] = []float32{float32(math.Inf(1)), float32(math.Inf(-1)), math.Float32frombits(nanB)}[bad%3]
					}
					label := fmt.Sprintf("n=%d rows=%d bad=%d", n, rows, bad)
					want := make([]float32, rows*n)
					wantFinite := gatherRowsGo(want, src, off, n)
					if wantFinite != (bad < 0) {
						t.Fatalf("%s: Go body says finite=%v", label, wantFinite)
					}
					buf, got := canaried(make([]float32, rows*n), 1, rows*n)
					if finite := GatherRows(got, src, off, n); finite != wantFinite {
						t.Fatalf("%s: finite = %v, want %v", label, finite, wantFinite)
					}
					requireSameBits(t, got, want, label)
					requireCanaries(t, buf, 1, rows*n, label)
				}
			}
		}
	})
}

// TestRowHelpersPanic: operands that do not fit GatherRows, Transpose4,
// Symmetrize or PackLower are refused before anything is written.
func TestRowHelpersPanic(t *testing.T) {
	mustPanic := func(label string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: no panic", label)
			}
		}()
		fn()
	}
	row := []float32{1, 2, 3, 4, 5}
	dst := make([]float32, 10)
	mustPanic("GatherRows short destination", func() { GatherRows(dst[:9], [][]float32{row, row}, 0, 5) })
	mustPanic("GatherRows short source", func() { GatherRows(dst, [][]float32{row, row[:4]}, 0, 5) })
	mustPanic("GatherRows span past the source", func() { GatherRows(dst, [][]float32{row, row}, 1, 5) })
	mustPanic("GatherRows negative offset", func() { GatherRows(dst, [][]float32{row}, -1, 5) })
	mustPanic("Transpose4 short destination", func() { Transpose4(make([]float32, 19), 4, row, row, row, row) })
	mustPanic("Transpose4 stride narrower than four", func() { Transpose4(make([]float32, 20), 3, row, row, row, row) })
	mustPanic("Symmetrize short destination", func() { Symmetrize(dst[:7], 3, 3, row) })
	mustPanic("Symmetrize stride narrower than the matrix", func() { Symmetrize(dst, 2, 3, row) })
	mustPanic("Symmetrize short triangle", func() { Symmetrize(dst, 3, 4, row) })
	mustPanic("PackLower short destination", func() { PackLower(dst[:2], row, 2, 3) })
	mustPanic("PackLower short source", func() { PackLower(dst, row[:4], 2, 3) })
	for i, v := range dst {
		if v != 0 {
			t.Fatalf("element %d was written before a panic", i)
		}
	}
}

// TestSymmetrizeAndPackLowerMatchGo holds every body of Symmetrize and
// PackLower to the Go loops bit for bit, NaN payloads included, for every
// matrix order through two eight-lane vectors plus a tail, at the narrowest
// stride and a wider one, with nothing written outside the triangle's
// elements: Symmetrize leaves the diagonal and the padding as they were.
func TestSymmetrizeAndPackLowerMatchGo(t *testing.T) {
	forEachBody(t, func(t *testing.T) {
		rng := NewRNG(14)
		for m := 0; m <= 19; m++ {
			for _, gap := range []int{0, 5} {
				stride := m + gap
				label := fmt.Sprintf("m=%d stride=%d", m, stride)
				size := m * stride
				lower := withNaNs(rng, axpyValues(rng, m*(m-1)/2), nanB)
				init := withNaNs(rng, axpyValues(rng, size), nanD)
				want := append([]float32(nil), init...)
				symmetrizeGo(want, stride, lower, m)
				buf, got := canaried(init, 1, size)
				Symmetrize(got, stride, m, lower)
				requireSameBits(t, got, want, "Symmetrize "+label)
				requireCanaries(t, buf, 1, size, "Symmetrize "+label)
				for a := range m {
					if math.Float32bits(got[a*stride+a]) != math.Float32bits(init[a*stride+a]) {
						t.Fatalf("Symmetrize %s: diagonal element %d written", label, a)
					}
				}

				packed := make([]float32, m*(m-1)/2)
				packLowerGo(packed, want, stride, m)
				requireSameBits(t, packed, lower, "PackLower of Symmetrize "+label)
				pbuf, pgot := canaried(make([]float32, len(packed)), 3, len(packed))
				PackLower(pgot, want, stride, m)
				requireSameBits(t, pgot, packed, "PackLower "+label)
				requireCanaries(t, pbuf, 3, len(packed), "PackLower "+label)
			}
		}
	})
}
