package cluster

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// gatherBundle encodes slots the way rank 0 bundles GatherAll
// contributions: a u32 little-endian length, then the bytes, per slot.
func gatherBundle(slots ...[]byte) []byte {
	var out []byte
	for _, b := range slots {
		out = binary.LittleEndian.AppendUint32(out, uint32(len(b)))
		out = append(out, b...)
	}
	return out
}

// FuzzSplitGatherBundle holds the GatherAll bundle parser to "no panic; an
// error or every slot filled; and the filled slots tile the bundle": each
// slot aliases the bundle just past its length prefix, and the prefixes
// and slots, in order, cover it exactly.
func FuzzSplitGatherBundle(f *testing.F) {
	f.Add(uint8(3), gatherBundle([]byte("abc"), nil, []byte("de")))
	f.Add(uint8(1), gatherBundle(nil))
	f.Add(uint8(0), []byte{})
	f.Add(uint8(2), gatherBundle([]byte{1, 2, 3, 4}, bytes.Repeat([]byte{9}, 40)))
	f.Add(uint8(2), gatherBundle([]byte{7}))                          // one slot short
	f.Add(uint8(1), append(gatherBundle([]byte{7}), 0))               // a trailing byte
	f.Add(uint8(1), []byte{0xff, 0xff, 0xff, 0xff, 1})                // a length past the end
	f.Add(uint8(2), []byte{1, 0, 0, 0, 5, 0xff, 0xff, 0xff, 0x7f, 6}) // a length over 2^31
	f.Fuzz(func(t *testing.T, n uint8, all []byte) {
		into := make([][]byte, n%17)
		if err := splitGatherBundle(all, into); err != nil {
			return
		}
		off := 0
		for i, slot := range into {
			if off+4 > len(all) || int(binary.LittleEndian.Uint32(all[off:])) != len(slot) {
				t.Fatalf("slot %d holds %d bytes; its prefix at offset %d does not say so", i, len(slot), off)
			}
			off += 4
			if len(slot) > 0 && &slot[0] != &all[off] {
				t.Fatalf("slot %d does not alias the bundle at offset %d", i, off)
			}
			off += len(slot)
		}
		if off != len(all) {
			t.Fatalf("the %d slots cover %d of the bundle's %d bytes", len(into), off, len(all))
		}
	})
}
