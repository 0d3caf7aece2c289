package vlz

import (
	"encoding/binary"
	"errors"
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
	// hash chain, and the hash heads, reused across calls.
	ring []int
	prev []int32
	head map[uint64]int32
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
	// FNV-1a variant folding one whole code per round instead of its four
	// bytes — a quarter of the multiplies of the byte-wise version. The
	// encoded output does not depend on the hash function: chain candidates
	// are verified with rowsEqual, equal rows collide under any deterministic
	// hash, and unequal colliders are skipped, so swapping the hash is
	// invisible in the frame bytes (only Stats.UniqueRows, which is
	// hash-bucket-approximate by construction, could notice).
	h := uint64(1469598103934665603)
	for _, c := range row {
		h ^= uint64(uint32(c))
		h *= 1099511628211
	}
	return h
}

func rowsEqual(a, b []int32) bool {
	// Fixed-pattern-length fast path: reject on the first element.
	if a[0] != b[0] {
		return false
	}
	for i := 1; i < len(a); i++ {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// EncodeStats runs AppendEncode and also returns batch statistics.
func (e *Encoder) EncodeStats(codes []int32, dim int) ([]byte, Stats, error) {
	out, err := e.AppendEncode(nil, codes, dim)
	if err != nil {
		return nil, Stats{}, err
	}
	st := Stats{Rows: len(codes) / dim, PayloadSize: len(out)}
	// Re-derive match/literal counts by a cheap scan of the token stream.
	_, st.Matched, st.Literals, err = scanTokens(out)
	if err != nil {
		return nil, Stats{}, err
	}
	uniq := make(map[uint64]bool)
	for r := 0; r < st.Rows; r++ {
		uniq[hashRow(codes[r*dim:(r+1)*dim])] = true
	}
	st.UniqueRows = len(uniq)
	return out, st, nil
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
