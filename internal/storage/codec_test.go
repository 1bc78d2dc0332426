package storage

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// codecRoundTrip encodes vals as one framed block and decodes it back,
// additionally checking that every strict prefix of the encoding reports a
// partial block (consumed == 0, nil error) rather than garbage.
func codecRoundTrip(t *testing.T, vals []uint32, vert bool) {
	t.Helper()
	var scratch []byte
	var enc []byte
	if vert {
		enc = appendVertBlock(nil, vals, &scratch)
	} else {
		enc = appendCntBlock(nil, vals, &scratch)
	}
	dst := make([]uint32, codecBlockVals)
	got, consumed, err := decodeCodecBlock(enc, vert, dst)
	if err != nil {
		t.Fatalf("decode(%d vals, vert=%v): %v", len(vals), vert, err)
	}
	if consumed != len(enc) {
		t.Fatalf("decode consumed %d of %d bytes", consumed, len(enc))
	}
	want := vals
	if want == nil {
		want = []uint32{}
	}
	if !reflect.DeepEqual(append([]uint32{}, got...), append([]uint32{}, want...)) {
		t.Fatalf("round trip mismatch: got %d vals, want %d", len(got), len(vals))
	}
	for _, cut := range []int{0, 1, len(enc) / 2, len(enc) - 1} {
		if cut >= len(enc) {
			continue
		}
		_, consumed, err := decodeCodecBlock(enc[:cut], vert, dst)
		if cut > 0 && err != nil {
			t.Fatalf("prefix %d/%d: unexpected error %v", cut, len(enc), err)
		}
		if consumed != 0 {
			t.Fatalf("prefix %d/%d: consumed %d from a partial block", cut, len(enc), consumed)
		}
	}
}

// TestCodecBlockRoundTrip fuzzes the block codec over the shapes the storage
// layer produces: near-sorted runs (the vert common case), uniform noise,
// empty blocks, single values, alternating max-delta extremes, and blocks of
// exactly codecBlockVals values.
func TestCodecBlockRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(codecBlockVals + 1)
		vals := make([]uint32, n)
		switch trial % 5 {
		case 0: // near-sorted run with small deltas and occasional resets
			cur := rng.Uint32() % 1000
			for i := range vals {
				if rng.Intn(40) == 0 {
					cur = rng.Uint32()
				} else if d := rng.Intn(16) - 4; d >= 0 || uint32(-d) <= cur {
					cur = uint32(int64(cur) + int64(d))
				}
				vals[i] = cur
			}
		case 1: // uniform noise
			for i := range vals {
				vals[i] = rng.Uint32()
			}
		case 2: // max-delta alternation: the widest zigzag deltas possible
			for i := range vals {
				if i%2 == 0 {
					vals[i] = 0
				} else {
					vals[i] = math.MaxUint32
				}
			}
		case 3: // tight cluster (the cnt common case)
			base := rng.Uint32()
			if base > math.MaxUint32-8 {
				base = math.MaxUint32 - 8
			}
			for i := range vals {
				vals[i] = base + uint32(rng.Intn(8))
			}
		case 4: // mid-range deltas (two-byte zigzag after doubling): the
			// packed two-byte group path, starting near the top of the
			// range to hit the cnt fast path's overflow guard
			cur := uint32(math.MaxUint32 - 1<<22)
			for i := range vals {
				cur += uint32(128 + rng.Intn(1<<15-128))
				vals[i] = cur
			}
		}
		codecRoundTrip(t, vals, trial%2 == 0)
	}
	for _, vals := range [][]uint32{nil, {}, {0}, {math.MaxUint32}, {7}} {
		codecRoundTrip(t, vals, true)
		codecRoundTrip(t, vals, false)
	}
	full := make([]uint32, codecBlockVals) // exactly one full block
	for i := range full {
		full[i] = uint32(i * 3)
	}
	codecRoundTrip(t, full, true)
	codecRoundTrip(t, full, false)
}

// TestCodecUnknownVersion: a version byte from the future must be a hard,
// descriptive error — never a silent misdecode.
func TestCodecUnknownVersion(t *testing.T) {
	var scratch []byte
	enc := appendVertBlock(nil, []uint32{1, 2, 3}, &scratch)
	enc[0] = codecVersion + 1
	dst := make([]uint32, codecBlockVals)
	_, _, err := decodeCodecBlock(enc, true, dst)
	if err == nil || !strings.Contains(err.Error(), "unknown compressed block version") {
		t.Fatalf("future version byte: err = %v", err)
	}
}

// TestCodecCorruptHeader rejects headers whose fields exceed the format
// bounds before trusting them.
func TestCodecCorruptHeader(t *testing.T) {
	var scratch []byte
	dst := make([]uint32, codecBlockVals)
	// Oversized count.
	enc := appendVertBlock(nil, []uint32{1}, &scratch)
	bad := []byte{codecVersion, 0xff, 0xff, 0x7f, 1, 0} // count ≫ codecBlockVals
	if _, _, err := decodeCodecBlock(bad, true, dst); err == nil {
		t.Fatal("oversized count accepted")
	}
	// Truncated payload inside an otherwise valid frame: drop the last
	// delta byte (shrinking payloadLen to match) so the deltas run short.
	enc = appendVertBlock(nil, []uint32{5, 6, 7, 8}, &scratch)
	enc = enc[:len(enc)-1]
	enc[2]-- // payloadLen field: count 4 and the payload are single-byte here
	if _, _, err := decodeCodecBlock(enc, true, dst); err == nil {
		t.Fatal("short payload accepted")
	}
	// A group control byte claiming wider values than the payload holds.
	enc = appendVertBlock(nil, []uint32{5, 6, 7, 8}, &scratch)
	enc[4] = 0xff // every delta 4 bytes wide, but only 3 payload bytes follow
	if _, _, err := decodeCodecBlock(enc, true, dst); err == nil {
		t.Fatal("overlong control byte accepted")
	}
}

// TestCompressedRatioAndAccounting: near-sorted spill data must compress at
// least 2× — and the logical/physical split must be visible in the level,
// the tracker's spill totals, and the write I/O counter.
func TestCompressedRatioAndAccounting(t *testing.T) {
	// Sorted, dense children: the shape expansion actually spills (children
	// of one parent are ascending vertex ids).
	groups := make([][]uint32, 800)
	next := uint32(0)
	for i := range groups {
		g := make([]uint32, 40)
		for j := range g {
			next += uint32(1 + (i+j)%3)
			g[j] = next
		}
		groups[i] = g
		next -= 60 // overlap between consecutive groups, still near-sorted
	}
	_, dl, tracker := buildLevels(t, nil, groups, 2, false, layoutDisk)
	logical := dl.DiskBytes()
	phys := dl.DiskBytesPhysical()
	if logical == 0 || phys == 0 {
		t.Fatalf("bytes: logical %d physical %d", logical, phys)
	}
	if phys*2 > logical {
		t.Fatalf("compression ratio %.2f below 2×: logical %d physical %d", float64(logical)/float64(phys), logical, phys)
	}
	sl, sp := tracker.SpillTotals()
	if sl != logical || sp != phys {
		t.Fatalf("SpillTotals = (%d, %d), want (%d, %d)", sl, sp, logical, phys)
	}
	if _, w := tracker.IOTotals(); w != phys {
		t.Fatalf("write bytes = %d, want physical %d", w, phys)
	}
}

// FuzzDecodeCodecBlock feeds arbitrary bytes to the block decoder. Every byte
// it decodes was read from a spill file, so it is untrusted input: for any
// bytes the decoder must not panic, must consume no more than it was given
// and return at most codecBlockVals values, and whatever values it accepts
// must encode and decode back to themselves. The input is decoded twice: as
// it is, and framed as the payload of a block with a correct checksum (its
// first two bytes pick the value count), so the payload decoders are reached
// without the fuzzer having to forge a CRC. The seeds are real vert and cnt
// blocks (runs, noise, extremes, a full block), their truncations, a bumped
// version byte and single bit flips in the header, checksum and payload.
func FuzzDecodeCodecBlock(f *testing.F) {
	rng := rand.New(rand.NewSource(5))
	run := make([]uint32, 300)
	for i := range run {
		run[i] = 1000 + uint32(i)*3 + uint32(rng.Intn(3))
	}
	noise := make([]uint32, 61)
	for i := range noise {
		noise[i] = rng.Uint32()
	}
	extremes := []uint32{0, math.MaxUint32, 0, math.MaxUint32, 1, math.MaxUint32 - 1, 0}
	full := make([]uint32, codecBlockVals)
	for i := range full {
		full[i] = uint32(i * 7)
	}
	var scratch []byte
	for _, vals := range [][]uint32{nil, {42}, run, noise, extremes, full} {
		for _, vert := range []bool{true, false} {
			enc := encodeBlock(vals, vert, &scratch)
			f.Add(enc, vert)
			f.Add(enc, !vert)
			f.Add(enc[:len(enc)/2], vert)
			f.Add(enc[:len(enc)-1], vert)
			bumped := append([]byte(nil), enc...)
			bumped[0]++
			f.Add(bumped, vert)
			for _, at := range []int{1, len(enc) / 2, len(enc) - 1} {
				flipped := append([]byte(nil), enc...)
				flipped[at] ^= 1 << (at % 8)
				f.Add(flipped, vert)
			}
		}
	}
	f.Fuzz(func(t *testing.T, buf []byte, vert bool) {
		checkDecode(t, buf, vert)
		if len(buf) >= 2 {
			count := int(binary.LittleEndian.Uint16(buf)) % (codecBlockVals + 1)
			payload := buf[2:]
			framed := []byte{codecVersion}
			framed = binary.AppendUvarint(framed, uint64(count))
			framed = binary.AppendUvarint(framed, uint64(len(payload)))
			framed = binary.LittleEndian.AppendUint32(framed, crc32.Checksum(payload, castagnoli))
			checkDecode(t, append(framed, payload...), vert)
		}
	})
}

// encodeBlock encodes vals as one framed vert or cnt block.
func encodeBlock(vals []uint32, vert bool, scratch *[]byte) []byte {
	if vert {
		return appendVertBlock(nil, vals, scratch)
	}
	return appendCntBlock(nil, vals, scratch)
}

// checkDecode decodes buf and checks the fuzz properties.
func checkDecode(t *testing.T, buf []byte, vert bool) {
	t.Helper()
	vals, consumed, err := decodeCodecBlock(buf, vert, make([]uint32, codecBlockVals))
	if consumed < 0 || consumed > len(buf) {
		t.Fatalf("consumed %d of %d bytes", consumed, len(buf))
	}
	if len(vals) > codecBlockVals {
		t.Fatalf("decoded %d values, a block holds at most %d", len(vals), codecBlockVals)
	}
	if err != nil || consumed == 0 {
		return
	}
	var scratch []byte
	enc := encodeBlock(vals, vert, &scratch)
	again, n, err := decodeCodecBlock(enc, vert, make([]uint32, codecBlockVals))
	if err != nil || n != len(enc) {
		t.Fatalf("re-encoded block of %d values: consumed %d of %d, %v", len(vals), n, len(enc), err)
	}
	if !reflect.DeepEqual(append([]uint32{}, again...), append([]uint32{}, vals...)) {
		t.Fatalf("values do not survive a re-encode: %v -> %v", vals, again)
	}
}
