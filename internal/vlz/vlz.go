package vlz

import (
	"encoding/binary"
	"errors"
	"math/bits"
)

// DefaultWindow is the row-granular window the paper found best (Table VI).
const DefaultWindow = 255

var errCorrupt = errors.New("vlz: corrupt frame")

// Encoder compresses batches of fixed-length integer vectors.
type Encoder struct {
	// Window is the number of most recent distinct rows searched for a
	// match. The paper sweeps 32/64/128/255 (Table VI).
	Window int

	// AppendEncode workspace (see append.go): the literal-row ring, its
	// hash chain, and the hash-bucket heads, reused across calls.
	ring []int
	prev []int32
	head []int32
}

// New returns an Encoder with the given window (rows). window <= 0 selects
// DefaultWindow.
func New(window int) *Encoder {
	if window <= 0 {
		window = DefaultWindow
	}
	return &Encoder{Window: window}
}

// Stats reports what the encoder did to one batch (drives Fig. 13 and the
// homogenization analysis).
type Stats struct {
	Rows        int
	Matched     int // rows emitted as match tokens
	Literals    int // rows emitted literally
	UniqueRows  int // distinct rows seen (literal count == unique within window reach)
	PayloadSize int // encoded bytes
}

func hashRow(row []int32) uint64 {
	// FNV-1a variant folding two whole codes per round instead of one byte —
	// an eighth of the multiplies of the byte-wise version — in two
	// independent lanes, so consecutive multiplies overlap instead of
	// queueing. A multiply only carries bits upward, so the lanes are mixed
	// once more at the end and table users index by the top bits. The
	// encoded output does not depend on the hash function: chain candidates
	// are verified with rowsEqual, equal rows collide under any deterministic
	// hash, and unequal colliders are skipped, so swapping the hash is
	// invisible in the frame bytes (only Stats.UniqueRows, which is
	// hash-bucket-approximate by construction, could notice).
	const prime = 1099511628211
	h1, h2 := uint64(1469598103934665603), uint64(0x9E3779B97F4A7C15)
	i := 0
	for ; i+4 <= len(row); i += 4 {
		h1 = (h1 ^ (uint64(uint32(row[i])) | uint64(uint32(row[i+1]))<<32)) * prime
		h2 = (h2 ^ (uint64(uint32(row[i+2])) | uint64(uint32(row[i+3]))<<32)) * prime
	}
	for ; i < len(row); i++ {
		h1 = (h1 ^ uint64(uint32(row[i]))) * prime
	}
	return (h1 ^ bits.RotateLeft64(h2, 32)) * prime
}

func rowsEqual(a, b []int32) bool {
	// Fixed-pattern-length fast path: reject on the first element. What gets
	// past it is usually a real match, so the rest is compared without a
	// branch per element.
	if a[0] != b[0] {
		return false
	}
	b = b[:len(a)]
	var diff int32
	for i, v := range a {
		diff |= v ^ b[i]
	}
	return diff == 0
}

// EncodeStats encodes the batch and returns what the encoder did to it.
func (e *Encoder) EncodeStats(codes []int32, dim int) (Stats, error) {
	out, err := e.AppendEncode(nil, codes, dim)
	if err != nil {
		return Stats{}, err
	}
	st := Stats{Rows: len(codes) / dim, PayloadSize: len(out)}
	// Re-derive match/literal counts by a cheap scan of the token stream.
	_, st.Matched, st.Literals, err = scanTokens(out)
	if err != nil {
		return Stats{}, err
	}
	uniq := make(map[uint64]bool)
	for r := 0; r < st.Rows; r++ {
		uniq[hashRow(codes[r*dim:(r+1)*dim])] = true
	}
	st.UniqueRows = len(uniq)
	return st, nil
}

func scanTokens(data []byte) (dim int, matched, literals int, err error) {
	d, n := binary.Uvarint(data)
	if n <= 0 {
		return 0, 0, 0, errCorrupt
	}
	data = data[n:]
	rows, n := binary.Uvarint(data)
	if n <= 0 {
		return 0, 0, 0, errCorrupt
	}
	data = data[n:]
	for covered := uint64(0); covered < rows; {
		if len(data) == 0 {
			return 0, 0, 0, errCorrupt
		}
		tok := data[0]
		data = data[1:]
		switch tok {
		case 1:
			_, n := binary.Uvarint(data)
			if n <= 0 {
				return 0, 0, 0, errCorrupt
			}
			data = data[n:]
			matched++
			covered++
		case 2:
			_, n := binary.Uvarint(data)
			if n <= 0 {
				return 0, 0, 0, errCorrupt
			}
			data = data[n:]
			cnt, n2 := binary.Uvarint(data)
			if n2 <= 0 || cnt == 0 {
				return 0, 0, 0, errCorrupt
			}
			data = data[n2:]
			matched += int(cnt)
			covered += cnt
		case 0:
			for j := uint64(0); j < d; j++ {
				_, n := binary.Uvarint(data)
				if n <= 0 {
					return 0, 0, 0, errCorrupt
				}
				data = data[n:]
			}
			literals++
			covered++
		default:
			return 0, 0, 0, errCorrupt
		}
	}
	return int(d), matched, literals, nil
}
