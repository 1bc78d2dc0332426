package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/bits"
)

// Spilled parts are a sequence of self-delimiting blocks of codecBlockVals
// values each (the last block of a stream may hold fewer). This is the only
// spill format:
//
//	[1 byte version][uvarint count][uvarint payloadLen][4-byte LE CRC32C][payload]
//
// The CRC32C (Castagnoli, hardware-accelerated on amd64/arm64) covers the
// payload bytes and is verified on every whole-block decode, so a flipped
// bit on disk surfaces as a typed corruption error instead of a misdecode.
// Version 2 added the checksum field; version-1 blocks (the pre-checksum
// format) are cleanly rejected — spill files are single-run scratch, never
// read across versions, so no compatibility decode path exists.
//
// A vert payload is the block's first value as a uvarint followed by the
// remaining count-1 values as zigzag deltas (mod 2³²) in group-varint: one
// control byte per four values holding each value's byte length minus one
// in two bits, then the values' little-endian bytes (1-4 each, the final
// group may hold fewer than four). Verts are near-sorted within a part, so
// deltas are small and most values take one byte. A cnt payload is
// frame-of-reference: a uvarint base (the block minimum) followed by all
// count values as group-varint v-base deltas — child counts cluster
// tightly. Group-varint over per-value varint keeps the codec off the
// expansion critical path: encode and decode run branch-free per value
// (unaligned 32-bit word moves plus a length table) instead of per byte.
// Blocks are decoded whole into pooled buffers; random access locates a
// block through the per-part physical offset directory (partComp) and
// never decodes more than one block per probe. An unknown version byte is
// a hard error: readers written today must refuse data written by a newer
// format instead of misdecoding it.
const (
	codecVersion = 2
	// codecBlockVals is the number of values per compressed block. It
	// equals CntChunk so every sparse-index entry falls on a cnt block
	// boundary: the bounded cnt read behind ParentOf/GroupStart touches
	// exactly one block.
	codecBlockVals = CntChunk
	// maxCodecPayload bounds a block payload: worst case is 5 bytes per
	// value plus a 5-byte head value. Used to reject corrupt headers
	// before trusting their length field.
	maxCodecPayload = 5 * (codecBlockVals + 1)
)

// castagnoli is the CRC32C table: crc32.Checksum with it uses the SSE4.2 /
// ARMv8 CRC instructions, so the per-block checksum costs nanoseconds, not a
// measurable share of a spilled run.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// partComp is the block directory of one spilled part: the physical offset
// into the part's file where each block starts, plus the physical stream
// sizes. Logical offsets are implicit — block b
// covers values [b·codecBlockVals, ...) — so the directory is what gives the
// cursors and the random-access probes block-granular seeks.
type partComp struct {
	vOffs     []int64
	cOffs     []int64
	physVerts int64
	physCnts  int64
}

// vertEnd returns the physical end offset of vert block b.
func (c *partComp) vertEnd(b int) int64 {
	if b+1 < len(c.vOffs) {
		return c.vOffs[b+1]
	}
	return c.physVerts
}

// cntEnd returns the physical end offset of cnt block b.
func (c *partComp) cntEnd(b int) int64 {
	if b+1 < len(c.cOffs) {
		return c.cOffs[b+1]
	}
	return c.physCnts
}

// dirBytes is the resident footprint of the directory itself.
func (c *partComp) dirBytes() int64 {
	if c == nil {
		return 0
	}
	return int64(len(c.vOffs)+len(c.cOffs)) * 8
}

// codecScratch returns scratch grown to the worst-case payload size, full
// length, so the encoders can write by index — no per-value append bounds
// dance on the expansion critical path.
func codecScratch(scratch *[]byte, vals int) []byte {
	need := 5 * (vals + 1)
	s := *scratch
	if cap(s) < need {
		s = make([]byte, need)
		*scratch = s
	}
	return s[:cap(s)]
}

// putUvarintAt writes u at s[n] and returns the new offset. The one-byte
// case — almost every delta and count — is expected to inline at the call
// sites' fast-path check, so this only runs the loop for multi-byte values.
func putUvarintAt(s []byte, n int, u uint64) int {
	for u >= 0x80 {
		s[n] = byte(u) | 0x80
		n++
		u >>= 7
	}
	s[n] = byte(u)
	return n + 1
}

// zigzag32 maps a signed mod-2³² delta onto a small unsigned value.
func zigzag32(d int32) uint32 { return uint32(d<<1) ^ uint32(d>>31) }

// unzigzag32 is the inverse of zigzag32.
func unzigzag32(u uint32) int32 { return int32(u>>1) ^ -int32(u&1) }

// gvLen is the group-varint byte length of u (1-4; zero still takes a byte).
func gvLen(u uint32) int { return (bits.Len32(u|1) + 7) >> 3 }

// gvMask truncates an unaligned 4-byte load to a group-varint length code.
var gvMask = [4]uint32{0xff, 0xffff, 0xffffff, 0xffffffff}

// putGV4 writes one full group of 4 values (control byte + 1-4 bytes each)
// at s[n] and returns the new offset. Delta streams from sorted adjacency
// runs are homogeneous, so the all-1-byte and all-2-byte groups dominate
// and get branch-predictable packed paths: one wide store instead of four
// offset-chained ones. The general path over-writes 4 bytes per value; the
// scratch has slack and the next write or the payload length trims it.
func putGV4(s []byte, n int, u0, u1, u2, u3 uint32) int {
	or4 := u0 | u1 | u2 | u3
	if or4 < 1<<8 {
		s[n] = 0 // four 1-byte values
		binary.LittleEndian.PutUint32(s[n+1:], u0|u1<<8|u2<<16|u3<<24)
		return n + 5
	}
	if or4 < 1<<16 {
		s[n] = 0x55 // four 2-byte values
		binary.LittleEndian.PutUint64(s[n+1:],
			uint64(u0)|uint64(u1)<<16|uint64(u2)<<32|uint64(u3)<<48)
		return n + 9
	}
	ctrl := n
	n++
	b0, b1, b2, b3 := gvLen(u0), gvLen(u1), gvLen(u2), gvLen(u3)
	binary.LittleEndian.PutUint32(s[n:], u0)
	n += b0
	binary.LittleEndian.PutUint32(s[n:], u1)
	n += b1
	binary.LittleEndian.PutUint32(s[n:], u2)
	n += b2
	binary.LittleEndian.PutUint32(s[n:], u3)
	n += b3
	s[ctrl] = byte(b0 - 1 | (b1-1)<<2 | (b2-1)<<4 | (b3-1)<<6)
	return n
}

// putGVTail writes a final group of 1-3 values starting at s[n] (control
// byte first). Each store is an unconditional 4-byte write — the scratch has
// slack, the next write or the payload length truncates the excess.
func putGVTail(s []byte, n int, vals []uint32) int {
	ctrl, cb, shift := n, 0, 0
	n++
	for _, u := range vals {
		b := gvLen(u)
		binary.LittleEndian.PutUint32(s[n:], u)
		n += b
		cb |= (b - 1) << shift
		shift += 2
	}
	s[ctrl] = byte(cb)
	return n
}

// appendVertBlock appends one framed vert block (head value + group-varint
// zigzag deltas) to dst. scratch holds the payload between calls to avoid
// reallocating it. The full-group loop is straight-line on purpose: this is
// the worker-side encode hot path, and the unrolled form keeps the stores
// branch-free (4-byte writes truncated by the next write's offset).
func appendVertBlock(dst []byte, vals []uint32, scratch *[]byte) []byte {
	s := codecScratch(scratch, len(vals))
	n := 0
	if len(vals) > 0 {
		n = putUvarintAt(s, n, uint64(vals[0]))
		prev := vals[0]
		i := 1
		for ; i+4 <= len(vals); i += 4 {
			v0, v1, v2, v3 := vals[i], vals[i+1], vals[i+2], vals[i+3]
			u0 := zigzag32(int32(v0 - prev))
			u1 := zigzag32(int32(v1 - v0))
			u2 := zigzag32(int32(v2 - v1))
			u3 := zigzag32(int32(v3 - v2))
			prev = v3
			// putGV4's packed paths, by hand: the group loop is too hot to
			// pay a call per group (putGV4 is over the inlining budget).
			if or4 := u0 | u1 | u2 | u3; or4 < 1<<8 {
				s[n] = 0
				binary.LittleEndian.PutUint32(s[n+1:], u0|u1<<8|u2<<16|u3<<24)
				n += 5
			} else if or4 < 1<<16 {
				s[n] = 0x55
				binary.LittleEndian.PutUint64(s[n+1:],
					uint64(u0)|uint64(u1)<<16|uint64(u2)<<32|uint64(u3)<<48)
				n += 9
			} else {
				n = putGV4(s, n, u0, u1, u2, u3)
			}
		}
		if i < len(vals) {
			var tail [3]uint32
			k := 0
			for _, v := range vals[i:] {
				tail[k] = zigzag32(int32(v - prev))
				prev = v
				k++
			}
			n = putGVTail(s, n, tail[:k])
		}
	}
	dst = append(dst, codecVersion)
	dst = binary.AppendUvarint(dst, uint64(len(vals)))
	dst = binary.AppendUvarint(dst, uint64(n))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.Checksum(s[:n], castagnoli))
	return append(dst, s[:n]...)
}

// appendCntBlock appends one framed cnt block (frame-of-reference base +
// group-varint deltas).
func appendCntBlock(dst []byte, vals []uint32, scratch *[]byte) []byte {
	s := codecScratch(scratch, len(vals))
	n := 0
	if len(vals) > 0 {
		base := vals[0]
		for _, v := range vals[1:] {
			if v < base {
				base = v
			}
		}
		n = putUvarintAt(s, n, uint64(base))
		i := 0
		for ; i+4 <= len(vals); i += 4 {
			n = putGV4(s, n, vals[i]-base, vals[i+1]-base, vals[i+2]-base, vals[i+3]-base)
		}
		if i < len(vals) {
			var tail [3]uint32
			k := 0
			for _, v := range vals[i:] {
				tail[k] = v - base
				k++
			}
			n = putGVTail(s, n, tail[:k])
		}
	}
	dst = append(dst, codecVersion)
	dst = binary.AppendUvarint(dst, uint64(len(vals)))
	dst = binary.AppendUvarint(dst, uint64(n))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.Checksum(s[:n], castagnoli))
	return append(dst, s[:n]...)
}

// maxCodecHeader bounds a block header: the version byte, two uvarints and
// the CRC.
const maxCodecHeader = 1 + 2*binary.MaxVarintLen64 + 4

// codecBlockHeader parses the header of the block at the front of buf and
// returns its value count, payload length and header size — hdr == 0 with
// a nil error when buf ends inside the header. Validation errors are plain,
// like decodeCodecBlock's.
func codecBlockHeader(buf []byte) (count, plen uint64, hdr int, err error) {
	if len(buf) == 0 {
		return 0, 0, 0, nil
	}
	if buf[0] != codecVersion {
		return 0, 0, 0, fmt.Errorf("unknown compressed block version %d (want %d); refusing to decode", buf[0], codecVersion)
	}
	p := 1
	count, n := binary.Uvarint(buf[p:])
	if n == 0 {
		return 0, 0, 0, nil
	}
	if n < 0 || count > codecBlockVals {
		return 0, 0, 0, fmt.Errorf("count %d exceeds %d", count, codecBlockVals)
	}
	p += n
	plen, n = binary.Uvarint(buf[p:])
	if n == 0 {
		return 0, 0, 0, nil
	}
	if n < 0 || plen > maxCodecPayload {
		return 0, 0, 0, fmt.Errorf("payload length %d exceeds %d", plen, maxCodecPayload)
	}
	p += n
	if len(buf)-p < 4 {
		return 0, 0, 0, nil
	}
	return count, plen, p + 4, nil
}

// decodeCodecBlock decodes one complete block from the front of buf into
// dst (cap ≥ codecBlockVals), verifying the payload CRC32C before trusting a
// single byte of it. It returns the decoded values and the bytes consumed,
// or consumed == 0 with a nil error when buf holds only a partial block —
// the streaming cursors then pull more bytes and retry. Validation errors
// are plain; callers wrap them into CorruptError with the file and block
// coordinates they alone know.
func decodeCodecBlock(buf []byte, vert bool, dst []uint32) ([]uint32, int, error) {
	count, plen, p, err := codecBlockHeader(buf)
	if err != nil || p == 0 {
		return nil, 0, err
	}
	if uint64(len(buf)-p) < plen {
		return nil, 0, nil
	}
	wantCRC := binary.LittleEndian.Uint32(buf[p-4:])
	payload := buf[p : p+int(plen)]
	if got := crc32.Checksum(payload, castagnoli); got != wantCRC {
		return nil, 0, fmt.Errorf("checksum mismatch: payload CRC32C %08x, header says %08x", got, wantCRC)
	}
	if vert {
		err = decodeVertPayload(payload, dst[:count])
	} else {
		err = decodeCntPayload(payload, dst[:count])
	}
	if err != nil {
		return nil, 0, err
	}
	return dst[:count], p + int(plen), nil
}

func decodeVertPayload(payload []byte, dst []uint32) error {
	if len(dst) == 0 {
		if len(payload) != 0 {
			return fmt.Errorf("storage: corrupt compressed vert block: %d payload bytes for empty block", len(payload))
		}
		return nil
	}
	first, n := binary.Uvarint(payload)
	if n <= 0 || first > math.MaxUint32 {
		return fmt.Errorf("storage: corrupt compressed vert block: bad head value")
	}
	pos := n
	prev := uint32(first)
	dst[0] = prev
	i := 1
	// Fast path: whole groups with a full 4-byte load guaranteed in bounds
	// (1 control byte + 4×4 value bytes).
	for i+4 <= len(dst) && pos+17 <= len(payload) {
		cb := uint32(payload[pos])
		pos++
		// Packed groups from putGV4's fast paths decode with one wide load.
		if cb == 0x55 {
			w := binary.LittleEndian.Uint64(payload[pos:])
			pos += 8
			prev += uint32(unzigzag32(uint32(w & 0xffff)))
			dst[i] = prev
			prev += uint32(unzigzag32(uint32(w >> 16 & 0xffff)))
			dst[i+1] = prev
			prev += uint32(unzigzag32(uint32(w >> 32 & 0xffff)))
			dst[i+2] = prev
			prev += uint32(unzigzag32(uint32(w >> 48)))
			dst[i+3] = prev
			i += 4
			continue
		}
		if cb == 0 {
			w := binary.LittleEndian.Uint32(payload[pos:])
			pos += 4
			prev += uint32(unzigzag32(w & 0xff))
			dst[i] = prev
			prev += uint32(unzigzag32(w >> 8 & 0xff))
			dst[i+1] = prev
			prev += uint32(unzigzag32(w >> 16 & 0xff))
			dst[i+2] = prev
			prev += uint32(unzigzag32(w >> 24))
			dst[i+3] = prev
			i += 4
			continue
		}
		for k := 0; k < 4; k++ {
			b := cb>>(k*2)&3 + 1
			u := binary.LittleEndian.Uint32(payload[pos:]) & gvMask[b-1]
			pos += int(b)
			prev += uint32(unzigzag32(u))
			dst[i+k] = prev
		}
		i += 4
	}
	// Tail: partial groups and loads near the payload end, byte-assembled.
	for i < len(dst) {
		if pos >= len(payload) {
			return fmt.Errorf("storage: corrupt compressed vert block: short delta %d/%d", i, len(dst))
		}
		cb := uint32(payload[pos])
		pos++
		for k := 0; k < 4 && i < len(dst); k++ {
			b := int(cb>>(k*2)&3) + 1
			if pos+b > len(payload) {
				return fmt.Errorf("storage: corrupt compressed vert block: short delta %d/%d", i, len(dst))
			}
			var u uint32
			for j := 0; j < b; j++ {
				u |= uint32(payload[pos+j]) << (8 * j)
			}
			pos += b
			prev += uint32(unzigzag32(u))
			dst[i] = prev
			i++
		}
	}
	if pos != len(payload) {
		return fmt.Errorf("storage: corrupt compressed vert block: %d trailing payload bytes", len(payload)-pos)
	}
	return nil
}

func decodeCntPayload(payload []byte, dst []uint32) error {
	if len(dst) == 0 {
		if len(payload) != 0 {
			return fmt.Errorf("storage: corrupt compressed cnt block: %d payload bytes for empty block", len(payload))
		}
		return nil
	}
	base, n := binary.Uvarint(payload)
	if n <= 0 || base > math.MaxUint32 {
		return fmt.Errorf("storage: corrupt compressed cnt block: bad base")
	}
	pos := n
	i := 0
	for i+4 <= len(dst) && pos+17 <= len(payload) {
		cb := uint32(payload[pos])
		pos++
		// Packed groups from putGV4's fast paths decode with one wide load;
		// base+0xffff staying in range covers all four values at once.
		if cb == 0x55 && base+0xffff <= math.MaxUint32 {
			w := binary.LittleEndian.Uint64(payload[pos:])
			pos += 8
			b32 := uint32(base)
			dst[i] = b32 + uint32(w&0xffff)
			dst[i+1] = b32 + uint32(w>>16&0xffff)
			dst[i+2] = b32 + uint32(w>>32&0xffff)
			dst[i+3] = b32 + uint32(w>>48)
			i += 4
			continue
		}
		if cb == 0 && base+0xff <= math.MaxUint32 {
			w := binary.LittleEndian.Uint32(payload[pos:])
			pos += 4
			b32 := uint32(base)
			dst[i] = b32 + w&0xff
			dst[i+1] = b32 + w>>8&0xff
			dst[i+2] = b32 + w>>16&0xff
			dst[i+3] = b32 + w>>24
			i += 4
			continue
		}
		for k := 0; k < 4; k++ {
			b := cb>>(k*2)&3 + 1
			u := binary.LittleEndian.Uint32(payload[pos:]) & gvMask[b-1]
			pos += int(b)
			v := base + uint64(u)
			if v > math.MaxUint32 {
				return fmt.Errorf("storage: corrupt compressed cnt block: value out of range at %d", i+k)
			}
			dst[i+k] = uint32(v)
		}
		i += 4
	}
	for i < len(dst) {
		if pos >= len(payload) {
			return fmt.Errorf("storage: corrupt compressed cnt block: short value %d/%d", i, len(dst))
		}
		cb := uint32(payload[pos])
		pos++
		for k := 0; k < 4 && i < len(dst); k++ {
			b := int(cb>>(k*2)&3) + 1
			if pos+b > len(payload) {
				return fmt.Errorf("storage: corrupt compressed cnt block: short value %d/%d", i, len(dst))
			}
			var u uint32
			for j := 0; j < b; j++ {
				u |= uint32(payload[pos+j]) << (8 * j)
			}
			pos += b
			v := base + uint64(u)
			if v > math.MaxUint32 {
				return fmt.Errorf("storage: corrupt compressed cnt block: value out of range at %d", i)
			}
			dst[i] = uint32(v)
			i++
		}
	}
	if pos != len(payload) {
		return fmt.Errorf("storage: corrupt compressed cnt block: %d trailing payload bytes", len(payload)-pos)
	}
	return nil
}
