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

// FP8 is E4M3: 4 exponent bits (bias 7) and 3 mantissa bits, with no
// infinity; exponent field 15 with mantissa 7 is NaN, so the largest finite
// value is field 15 with mantissa 6, 448.
const (
	f8ExpBits   = 4
	f8ManBits   = 3
	f8Bias      = 1<<(f8ExpBits-1) - 1
	f8MaxExp    = 1<<f8ExpBits - 1
	f8MaxFinite = 448
)

// F32ToF8 converts f to E4M3 with round-to-nearest and saturation at the
// maximum finite value.
func F32ToF8(f float32) uint8 {
	b := math.Float32bits(f)
	sign := uint8(b >> 31 << 7)
	if f != f { // NaN
		return sign | f8MaxExp<<f8ManBits | 1
	}
	af := min(math.Abs(float64(f)), f8MaxFinite) // saturate
	if af == 0 {
		return sign
	}
	exp := int(math.Floor(math.Log2(af)))
	minExp := 1 - f8Bias
	if exp < minExp {
		// Subnormal: value = m · 2^(minExp − manBits).
		m := int(math.Round(af / math.Ldexp(1, minExp-f8ManBits)))
		if m >= 1<<f8ManBits { // rounds up into the smallest normal
			return sign | 1<<f8ManBits
		}
		return sign | uint8(m)
	}
	mant := af/math.Ldexp(1, exp) - 1 // in [0,1)
	m := int(math.Round(mant * (1 << f8ManBits)))
	if m == 1<<f8ManBits {
		m = 0
		exp++
	}
	expField := exp + f8Bias
	if expField > f8MaxExp || (expField == f8MaxExp && m > 6) {
		expField, m = f8MaxExp, 6
	}
	return sign | uint8(expField)<<f8ManBits | uint8(m)
}

// F8ToF32 decodes an E4M3 value.
func F8ToF32(v uint8) float32 {
	sign := float64(1)
	if v&0x80 != 0 {
		sign = -1
	}
	expField := int(v>>f8ManBits) & f8MaxExp
	m := int(v) & (1<<f8ManBits - 1)
	if expField == f8MaxExp && m == 7 {
		return float32(math.NaN())
	}
	if expField == 0 {
		return float32(sign * float64(m) * math.Ldexp(1, 1-f8Bias-f8ManBits))
	}
	// The conversion keeps m/8 (a multiply by 1/8 once compiled) from
	// fusing with the add.
	return float32(sign * (1 + float64(float64(m)/(1<<f8ManBits))) * math.Ldexp(1, expField-f8Bias))
}

// --- Codec wrappers -------------------------------------------------------

// FP16Codec is the FP16 communication baseline.
type FP16Codec struct{}

// Name implements codec.Codec.
func (FP16Codec) Name() string { return "fp16" }

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

// FP8Codec is the FP8 (E4M3) communication baseline (paper's SOTA
// low-precision comparator). Its frame keeps a format byte, always 0: a
// frame with any other value there is rejected.
type FP8Codec struct{}

// Name implements codec.Codec.
func (FP8Codec) Name() string { return "fp8-e4m3" }

// CompressAppend casts every value to FP8.
func (FP8Codec) CompressAppend(dst []byte, src []float32, dim int) ([]byte, error) {
	if dim <= 0 || len(src)%dim != 0 {
		return nil, fmt.Errorf("lowprec: bad shape len=%d dim=%d", len(src), dim)
	}
	dst = slices.Grow(dst, 9+len(src))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(dim))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(src)))
	dst = append(dst, 0) // format byte: E4M3
	for _, v := range src {
		dst = append(dst, F32ToF8(v))
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
	if n != len(dst) || len(frame) != 9+n || dim <= 0 || n%dim != 0 || frame[8] != 0 {
		return 0, errCorrupt
	}
	for i := range dst {
		dst[i] = F8ToF32(frame[9+i])
	}
	return dim, nil
}
