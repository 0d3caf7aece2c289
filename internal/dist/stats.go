package dist

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"
)

// Per-rank step statistics travel the control plane once per step (a
// cluster.Rank.GatherAll right after the backward all-to-all), so every
// process — whether it hosts all ranks or one — aggregates the global loss
// and the fleet-maxima device buckets from identical inputs, and every
// rank decides from the same records whether the step failed before it
// touches a parameter. The record is fixed layout, little endian:
//
//	lossBits uint32 | lookupBytes int64 | compressNs int64 |
//	decompressNs int64 | fwdRawBytes int64 | fwdCompBytes int64 |
//	errLen uint32 | errStr bytes

// rankStats is one rank's contribution to a step's global accounting.
type rankStats struct {
	loss        float32
	lookupBytes int64
	compress    time.Duration
	decompress  time.Duration
	fwdRaw      int64
	fwdComp     int64
	errStr      string
}

const rankStatsFixedBytes = 4 + 5*8 + 4

// appendRankStats appends the encoded record to dst.
func appendRankStats(dst []byte, s rankStats) []byte {
	var fixed [rankStatsFixedBytes]byte
	binary.LittleEndian.PutUint32(fixed[0:], math.Float32bits(s.loss))
	binary.LittleEndian.PutUint64(fixed[4:], uint64(s.lookupBytes))
	binary.LittleEndian.PutUint64(fixed[12:], uint64(s.compress))
	binary.LittleEndian.PutUint64(fixed[20:], uint64(s.decompress))
	binary.LittleEndian.PutUint64(fixed[28:], uint64(s.fwdRaw))
	binary.LittleEndian.PutUint64(fixed[36:], uint64(s.fwdComp))
	binary.LittleEndian.PutUint32(fixed[44:], uint32(len(s.errStr)))
	dst = append(dst, fixed[:]...)
	return append(dst, s.errStr...)
}

// decodeRankStats parses one record.
func decodeRankStats(b []byte) (rankStats, error) {
	if len(b) < rankStatsFixedBytes {
		return rankStats{}, fmt.Errorf("dist: rank stats record is %d bytes, want >= %d", len(b), rankStatsFixedBytes)
	}
	s := rankStats{
		loss:        math.Float32frombits(binary.LittleEndian.Uint32(b[0:])),
		lookupBytes: int64(binary.LittleEndian.Uint64(b[4:])),
		compress:    time.Duration(binary.LittleEndian.Uint64(b[12:])),
		decompress:  time.Duration(binary.LittleEndian.Uint64(b[20:])),
		fwdRaw:      int64(binary.LittleEndian.Uint64(b[28:])),
		fwdComp:     int64(binary.LittleEndian.Uint64(b[36:])),
	}
	n := int(binary.LittleEndian.Uint32(b[44:]))
	if len(b) != rankStatsFixedBytes+n {
		return rankStats{}, fmt.Errorf("dist: rank stats record is %d bytes, want %d", len(b), rankStatsFixedBytes+n)
	}
	s.errStr = string(b[rankStatsFixedBytes:])
	return s, nil
}

// anyRankFailed reports whether a step's gathered records mark it failed:
// some rank published an error, or a record does not parse. Every rank
// reads the same records, so every rank reaches the same verdict.
func anyRankFailed(recs [][]byte) bool {
	for _, rec := range recs {
		if s, err := decodeRankStats(rec); err != nil || s.errStr != "" {
			return true
		}
	}
	return false
}
