package lowprec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
)

var errCorrupt = errors.New("lowprec: corrupt frame")

// --- FP16 (IEEE binary16) -------------------------------------------------

// F32ToF16 converts a float32 to its nearest binary16 representation
// (round-to-nearest-even), with overflow mapping to ±Inf.
func F32ToF16(f float32) uint16 {
	b := math.Float32bits(f)
	sign := uint16((b >> 16) & 0x8000)
	exp := int32((b>>23)&0xFF) - 127 + 15
	mant := b & 0x7FFFFF

	switch {
	case (b>>23)&0xFF == 0xFF: // Inf/NaN
		if mant != 0 {
			return sign | 0x7E00 // NaN
		}
		return sign | 0x7C00 // Inf
	case exp >= 0x1F: // overflow -> Inf
		return sign | 0x7C00
	case exp <= 0: // subnormal or zero
		if exp < -10 {
			return sign // underflow to zero
		}
		mant |= 0x800000
		shift := uint32(14 - exp)
		half := uint32(1) << (shift - 1)
		v := uint16((mant + half) >> shift)
		return sign | v
	default:
		// Round-to-nearest-even on the 13 dropped bits.
		round := uint32(0xFFF)
		if (mant>>13)&1 == 1 {
			round = 0x1000
		}
		mant += round
		if mant&0x800000 != 0 { // mantissa overflow bumps exponent
			mant = 0
			exp++
			if exp >= 0x1F {
				return sign | 0x7C00
			}
		}
		return sign | uint16(exp<<10) | uint16(mant>>13)
	}
}

// F16ToF32 converts a binary16 value back to float32.
func F16ToF32(h uint16) float32 {
	sign := uint32(h&0x8000) << 16
	exp := uint32(h>>10) & 0x1F
	mant := uint32(h & 0x3FF)
	switch {
	case exp == 0:
		if mant == 0 {
			return math.Float32frombits(sign)
		}
		// Subnormal: normalize.
		e := uint32(127 - 15 + 1)
		for mant&0x400 == 0 {
			mant <<= 1
			e--
		}
		mant &= 0x3FF
		return math.Float32frombits(sign | e<<23 | mant<<13)
	case exp == 0x1F:
		if mant == 0 {
			return math.Float32frombits(sign | 0x7F800000)
		}
		return math.Float32frombits(sign | 0x7FC00000)
	default:
		return math.Float32frombits(sign | (exp-15+127)<<23 | mant<<13)
	}
}

// --- FP8 ---------------------------------------------------------------

// FP8Format selects one of the two FP8 encodings.
type FP8Format int

const (
	// E4M3: 4 exponent bits (bias 7), 3 mantissa bits; max finite 448.
	E4M3 FP8Format = iota
	// E5M2: 5 exponent bits (bias 15), 2 mantissa bits; max finite 57344.
	E5M2
)

func (f FP8Format) String() string {
	if f == E4M3 {
		return "e4m3"
	}
	return "e5m2"
}

// F32ToF8 converts f to the chosen FP8 format with round-to-nearest and
// saturation at the maximum finite value.
func F32ToF8(f float32, format FP8Format) uint8 {
	var expBits, manBits uint
	if format == E4M3 {
		expBits, manBits = 4, 3
	} else {
		expBits, manBits = 5, 2
	}
	bias := (1 << (expBits - 1)) - 1
	maxExpField := (1 << expBits) - 1

	b := math.Float32bits(f)
	sign := uint8(b >> 31 << 7)
	if f != f { // NaN
		return sign | uint8(maxExpField)<<manBits | 1
	}
	af := math.Abs(float64(f))
	if af == 0 {
		return sign
	}
	// Max finite: E4M3 uses exp field 15 with mantissa up to 6 (448);
	// E5M2 reserves exp 31 for Inf/NaN, max finite 57344.
	var maxFinite float64
	if format == E4M3 {
		maxFinite = 448
	} else {
		maxFinite = 57344
	}
	if af > maxFinite {
		af = maxFinite // saturate
	}
	exp := int(math.Floor(math.Log2(af)))
	minExp := 1 - bias
	if exp < minExp {
		// Subnormal: value = m · 2^(minExp − manBits).
		m := int(math.Round(af / math.Ldexp(1, minExp-int(manBits))))
		if m >= 1<<manBits { // rounds up into the smallest normal
			return sign | uint8(1)<<manBits
		}
		return sign | uint8(m)
	}
	mant := af/math.Ldexp(1, exp) - 1 // in [0,1)
	m := int(math.Round(mant * float64(int(1)<<manBits)))
	if m == 1<<manBits {
		m = 0
		exp++
	}
	expField := exp + bias
	if format == E4M3 {
		// E4M3 has no Inf; exp field 15 + mantissa 7 is NaN, so max is
		// field 15 mantissa 6.
		if expField > maxExpField || (expField == maxExpField && m > 6) {
			expField, m = maxExpField, 6
		}
	} else {
		if expField >= maxExpField { // saturate below Inf
			expField, m = maxExpField-1, (1<<manBits)-1
		}
	}
	return sign | uint8(expField)<<manBits | uint8(m)
}

// F8ToF32 decodes an FP8 value.
func F8ToF32(v uint8, format FP8Format) float32 {
	var expBits, manBits uint
	if format == E4M3 {
		expBits, manBits = 4, 3
	} else {
		expBits, manBits = 5, 2
	}
	bias := (1 << (expBits - 1)) - 1
	sign := float64(1)
	if v&0x80 != 0 {
		sign = -1
	}
	expField := int(v>>manBits) & ((1 << expBits) - 1)
	m := int(v) & ((1 << manBits) - 1)
	if format == E5M2 && expField == (1<<expBits)-1 {
		if m == 0 {
			return float32(sign * math.Inf(1))
		}
		return float32(math.NaN())
	}
	if format == E4M3 && expField == (1<<expBits)-1 && m == 7 {
		return float32(math.NaN())
	}
	if expField == 0 {
		return float32(sign * float64(m) * math.Ldexp(1, 1-bias-int(manBits)))
	}
	return float32(sign * (1 + float64(m)/float64(int(1)<<manBits)) * math.Ldexp(1, expField-bias))
}

// --- Codec wrappers -------------------------------------------------------

// FP16Codec is the FP16 communication baseline.
type FP16Codec struct{}

// Name implements codec.Codec.
func (FP16Codec) Name() string { return "fp16" }

// Lossy implements codec.Codec.
func (FP16Codec) Lossy() bool { return true }

// CompressAppend casts every value to binary16.
func (FP16Codec) CompressAppend(dst []byte, src []float32, dim int) ([]byte, error) {
	if dim <= 0 || len(src)%dim != 0 {
		return nil, fmt.Errorf("lowprec: bad shape len=%d dim=%d", len(src), dim)
	}
	dst = slices.Grow(dst, 8+2*len(src))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(dim))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(src)))
	for _, v := range src {
		dst = binary.LittleEndian.AppendUint16(dst, F32ToF16(v))
	}
	return dst, nil
}

// DecompressInto casts back to float32.
func (FP16Codec) DecompressInto(dst []float32, frame []byte) (int, error) {
	if len(frame) < 8 {
		return 0, errCorrupt
	}
	dim := int(binary.LittleEndian.Uint32(frame[0:]))
	n := int(binary.LittleEndian.Uint32(frame[4:]))
	if n != len(dst) || len(frame) != 8+2*n || dim <= 0 || n%dim != 0 {
		return 0, errCorrupt
	}
	for i := range dst {
		dst[i] = F16ToF32(binary.LittleEndian.Uint16(frame[8+2*i:]))
	}
	return dim, nil
}

// FP8Codec is the FP8 communication baseline (paper's SOTA low-precision
// comparator).
type FP8Codec struct{ Format FP8Format }

// Name implements codec.Codec.
func (c FP8Codec) Name() string { return "fp8-" + c.Format.String() }

// Lossy implements codec.Codec.
func (FP8Codec) Lossy() bool { return true }

// CompressAppend casts every value to FP8.
func (c FP8Codec) CompressAppend(dst []byte, src []float32, dim int) ([]byte, error) {
	if dim <= 0 || len(src)%dim != 0 {
		return nil, fmt.Errorf("lowprec: bad shape len=%d dim=%d", len(src), dim)
	}
	dst = slices.Grow(dst, 9+len(src))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(dim))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(src)))
	dst = append(dst, byte(c.Format))
	for _, v := range src {
		dst = append(dst, F32ToF8(v, c.Format))
	}
	return dst, nil
}

// DecompressInto casts back to float32.
func (FP8Codec) DecompressInto(dst []float32, frame []byte) (int, error) {
	if len(frame) < 9 {
		return 0, errCorrupt
	}
	dim := int(binary.LittleEndian.Uint32(frame[0:]))
	n := int(binary.LittleEndian.Uint32(frame[4:]))
	format := FP8Format(frame[8])
	if n != len(dst) || len(frame) != 9+n || dim <= 0 || n%dim != 0 {
		return 0, errCorrupt
	}
	if format != E4M3 && format != E5M2 {
		return 0, errCorrupt
	}
	for i := range dst {
		dst[i] = F8ToF32(frame[9+i], format)
	}
	return dim, nil
}
