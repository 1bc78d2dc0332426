package storage

import (
	"fmt"
	"sync"
)

// byteCarry reassembles self-delimiting codec blocks from the byte windows a
// blockStream delivers: a block may straddle two prefetch windows, so the
// unconsumed tail of one window is carried into the next. The leftover is
// always smaller than one encoded block, so the compaction copy is cheap.
type byteCarry struct {
	buf []byte
	off int
}

func (c *byteCarry) rest() []byte { return c.buf[c.off:] }

func (c *byteCarry) consume(n int) { c.off += n }

func (c *byteCarry) add(raw []byte) {
	if c.off >= len(c.buf) {
		c.buf = c.buf[:0]
	} else if c.off > 0 {
		n := copy(c.buf, c.buf[c.off:])
		c.buf = c.buf[:n]
	}
	c.off = 0
	c.buf = append(c.buf, raw...)
}

// codecBlocks is the one decoder of disk parts: it streams a value range of
// one part's vert or cnt file by decoding whole codec blocks into a reused
// buffer, dropping the leading values of the first block (the range may
// start mid-block — block granularity of the directory) and trimming the
// tail. The bytes have one source: a prefetching blockStream over the file
// span, whose windows the carry reassembles.
type codecBlocks struct {
	vert      bool
	src       *blockStream
	carry     byteCarry
	dec       []uint32
	skip      int
	remaining int
	err       error
	// path and blk locate decode failures — the file and the block index
	// within the part's stream — for the CorruptError a bad block surfaces
	// as.
	path string
	blk  int

	// Bound view (nextBounds): the running global offset and its buffer.
	cum uint64
	out []uint64
}

// start points the decoder at values [from, from+n) of disk part p's vert or
// cnt stream. The previous stream must be closed (which empties the carry);
// the decode buffers are kept.
func (c *codecBlocks) start(h *HybridLevel, p *hybridPart, vert bool, from, n int) {
	b0 := from / codecBlockVals
	b1 := (from + n - 1) / codecBlockVals
	f, off, end := p.span(vert, b0, b1)
	c.src = newBlockStream([]fileSpan{{f: f, off: off, n: end - off}}, h.blockSize, h.tracker)
	c.path = f.Name()
	if c.dec == nil {
		c.dec = make([]uint32, codecBlockVals)
	}
	c.vert, c.blk, c.skip, c.remaining, c.err = vert, b0, from-b0*codecBlockVals, n, nil
}

// next returns the next run of decoded values in range; ok is false once the
// range is delivered or an error occurred (see err).
func (c *codecBlocks) next() ([]uint32, bool) {
	for c.err == nil && c.remaining > 0 {
		vals, consumed, err := decodeCodecBlock(c.carry.rest(), c.vert, c.dec)
		if err != nil {
			c.err = corruptAt(c.path, c.blk, err)
			break
		}
		if consumed == 0 {
			c.fill()
			continue
		}
		c.carry.consume(consumed)
		c.blk++
		if c.skip >= len(vals) {
			c.skip -= len(vals)
			continue
		}
		vals = vals[c.skip:]
		c.skip = 0
		if len(vals) > c.remaining {
			vals = vals[:c.remaining]
		}
		c.remaining -= len(vals)
		if len(vals) > 0 {
			return vals, true
		}
	}
	return nil, false
}

// fill pulls the next prefetch window into the carry. Running out of bytes
// with values still owed means the file is shorter than the directory
// promised: truncation.
func (c *codecBlocks) fill() {
	if raw, ok := c.src.nextBlock(); ok {
		c.carry.add(raw)
		return
	}
	if err := c.src.Err(); err != nil {
		c.err = locateCorrupt(err, c.path, c.blk) // the file ends mid-window
		return
	}
	c.err = corruptAt(c.path, c.blk, fmt.Errorf("truncated block stream (%d values missing)", c.remaining))
}

// nextBounds is next for a cnt stream, delivered as global group end
// boundaries. Skipped leading cnt values do not advance cum: the starting
// base already accounts for them.
func (c *codecBlocks) nextBounds() ([]uint64, bool) {
	vals, ok := c.next()
	if !ok {
		return nil, false
	}
	if c.out == nil {
		c.out = make([]uint64, codecBlockVals)
	}
	out := c.out[:len(vals)]
	cum := c.cum
	for i, v := range vals {
		cum += uint64(v)
		out[i] = cum
	}
	c.cum = cum
	return out, true
}

// close stops the prefetch goroutine, if a stream is open, and drops the
// carried bytes; the decode buffers are kept for the next start.
func (c *codecBlocks) close() {
	if c.src != nil {
		c.src.Close()
		c.src = nil
	}
	c.carry = byteCarry{}
}

// The cursors are recycled: every walker seeding opens two per level, and a
// cursor over encoded parts carries 48 KB of decode buffers. Close returns a
// cursor to its pool, so it must not be used afterwards.
var (
	vertCursorPool  = sync.Pool{New: func() any { return new(hybridVertBlocks) }}
	boundCursorPool = sync.Pool{New: func() any { return new(hybridBoundBlocks) }}
)

// VertBlocks returns a sequential cursor over verts[lo:hi]: raw parts
// contribute zero-copy sub-slices, disk parts whole decoded codec blocks,
// stitched across part seams in one stream. A returned block is never empty
// and stays valid only until the following NextBlock call.
func (h *HybridLevel) VertBlocks(lo, hi int) *hybridVertBlocks {
	c := vertCursorPool.Get().(*hybridVertBlocks)
	c.h, c.next, c.end, c.pi, c.streaming, c.cb.err = h, lo, hi, 0, false, nil
	if lo < hi {
		c.pi = h.partIndexForVert(lo)
	}
	return c
}

// BoundBlocks returns a sequential cursor over the group end boundaries
// offs[first+1 ...] — the successive values of offs[i+1] from parent index
// first — across every residency, with VertBlocks' block validity rules.
func (h *HybridLevel) BoundBlocks(first int) *hybridBoundBlocks {
	c := boundCursorPool.Get().(*hybridBoundBlocks)
	c.h, c.g, c.pi, c.streaming, c.cb.err = h, first, len(h.parts), false, nil
	if first < h.totalGroups {
		c.pi = h.partIndexForGroup(first)
	}
	return c
}

// hybridVertBlocks stitches the parts overlapping [next, end): per part it
// chooses only between the zero-copy raw slice and the codec stream.
type hybridVertBlocks struct {
	h         *HybridLevel
	next, end int
	pi        int
	cb        codecBlocks
	streaming bool // cb is mid-way through part pi
}

// NextBlock returns the next run of units; ok is false once the range is
// exhausted or a stream error occurred (check Err).
func (c *hybridVertBlocks) NextBlock() ([]uint32, bool) {
	for c.cb.err == nil {
		if c.streaming {
			if blk, ok := c.cb.next(); ok {
				c.next += len(blk)
				return blk, true
			}
			if c.cb.err != nil {
				break
			}
			c.cb.close()
			c.streaming = false
			c.pi++
		}
		if c.next >= c.end || c.pi >= len(c.h.parts) {
			return nil, false
		}
		p := &c.h.parts[c.pi]
		pEnd := p.vertBase + p.numVerts
		if c.next >= pEnd {
			c.pi++
			continue
		}
		take := min(c.end, pEnd) - c.next
		from := c.next - p.vertBase
		if !p.onDisk() {
			c.next += take
			c.pi++
			return p.verts[from : from+take], true
		}
		c.cb.start(c.h, p, true, from, take)
		c.streaming = true
	}
	return nil, false
}

func (c *hybridVertBlocks) Err() error { return c.cb.err }

// Close stops the cursor's prefetch stream, if any, and returns it to its
// pool.
func (c *hybridVertBlocks) Close() error {
	c.cb.close()
	if c.h != nil { // a second Close must not pool the cursor twice
		c.h = nil
		vertCursorPool.Put(c)
	}
	return nil
}

// hybridBoundBlocks is the stitcher of the bound stream; g is the next
// global group whose end boundary to deliver.
type hybridBoundBlocks struct {
	h         *HybridLevel
	g         int
	pi        int
	cb        codecBlocks
	streaming bool
}

func (c *hybridBoundBlocks) NextBlock() ([]uint64, bool) {
	for c.cb.err == nil {
		if c.streaming {
			if blk, ok := c.cb.nextBounds(); ok {
				c.g += len(blk)
				return blk, true
			}
			if c.cb.err != nil {
				break
			}
			c.cb.close()
			c.streaming = false
			c.pi++
		}
		if c.pi >= len(c.h.parts) {
			return nil, false
		}
		p := &c.h.parts[c.pi]
		lf := c.g - p.groupBase
		if lf >= p.numGroups {
			c.pi++
			continue
		}
		if !p.onDisk() {
			blk := p.bounds[lf:]
			c.g += len(blk)
			c.pi++
			return blk, true
		}
		base, err := p.offAtLocal(lf, c.h.tracker)
		if err != nil {
			c.cb.err = err
			break
		}
		c.cb.start(c.h, p, false, lf, p.numGroups-lf)
		c.cb.cum = base
		c.streaming = true
	}
	return nil, false
}

func (c *hybridBoundBlocks) Err() error { return c.cb.err }

func (c *hybridBoundBlocks) Close() error {
	c.cb.close()
	if c.h != nil {
		c.h = nil
		boundCursorPool.Put(c)
	}
	return nil
}
