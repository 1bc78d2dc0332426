package storage

import (
	"fmt"
	"sync"
)

// codecBlocks is the one decoder of disk parts: it streams a value range of
// one part's vert or cnt file by decoding whole codec blocks into a reused
// buffer, dropping the leading values of the first block (the range may
// start mid-block — block granularity of the directory) and trimming the
// tail. The bytes have one source: a prefetching blockStream over the file
// span. Blocks are decoded where they lie in its windows; only a block that
// straddles a window seam is reassembled, in carry.
type codecBlocks struct {
	vert      bool
	src       *blockStream
	win       [2][]byte // the stream's windows, kept across streams
	cur       []byte    // the window being decoded, from pos
	pos       int
	carry     []byte // the bytes so far of a block straddling windows
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
	c.src = newBlockStream(fileSpan{f: f, off: off, n: end - off}, h.blockSize, h.tracker, &c.win)
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
		buf := c.cur[c.pos:]
		if len(c.carry) > 0 {
			buf = c.carry
		}
		vals, consumed, err := decodeCodecBlock(buf, c.vert, c.dec)
		if err != nil {
			c.err = corruptAt(c.path, c.blk, err)
			break
		}
		if consumed == 0 {
			c.fill()
			continue
		}
		if len(c.carry) > 0 {
			// Bytes carried past the block's end go back to the window.
			c.pos -= len(c.carry) - consumed
			c.carry = c.carry[:0]
		} else {
			c.pos += consumed
		}
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

// fill carries what is left of the current window — the front of a block
// straddling the seam — hands the window back and takes the next one, from
// which it carries only the bytes the block still needs. Running out of
// bytes with values still owed means the file is shorter than the directory
// promised: truncation.
func (c *codecBlocks) fill() {
	c.carry = append(c.carry, c.cur[c.pos:]...)
	if c.cur != nil {
		c.src.release(c.cur)
		c.cur, c.pos = nil, 0
	}
	raw, ok := c.src.next()
	if !ok {
		if err := c.src.Err(); err != nil {
			c.err = locateCorrupt(err, c.path, c.blk) // the file ends mid-window
			return
		}
		c.err = corruptAt(c.path, c.blk, fmt.Errorf("truncated block stream (%d values missing)", c.remaining))
		return
	}
	c.cur = raw
	for len(c.carry) > 0 && c.pos < len(c.cur) {
		n := c.need()
		if n <= 0 {
			break
		}
		n = min(n, len(c.cur)-c.pos)
		c.carry = append(c.carry, c.cur[c.pos:c.pos+n]...)
		c.pos += n
	}
}

// need is how many more bytes the carried block takes: the rest of its
// payload once its header is whole, else enough for any header (a block
// shorter than that gives the bytes past its end back, see next).
func (c *codecBlocks) need() int {
	_, plen, hdr, err := codecBlockHeader(c.carry)
	switch {
	case err != nil:
		return 0 // the decode reports it
	case hdr == 0:
		return maxCodecHeader - len(c.carry)
	}
	return hdr + int(plen) - len(c.carry)
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
// carried bytes; the windows and decode buffers are kept for the next start.
func (c *codecBlocks) close() {
	if c.src != nil {
		c.src.Close()
		c.src = nil
	}
	c.cur, c.pos, c.carry = nil, 0, c.carry[:0]
}

// The cursors are recycled: every walker seeding opens two per level, and a
// cursor over encoded parts carries 48 KB of decode buffers and its two
// prefetch windows. Close returns a cursor to its pool, so it must not be
// used afterwards.
var (
	vertCursorPool  = sync.Pool{New: func() any { return new(hybridVertBlocks) }}
	boundCursorPool = sync.Pool{New: func() any { return new(hybridBoundBlocks) }}
)

// VertBlocks returns a sequential cursor over the stored units [lo, hi) —
// verts[lo:hi] of a plain level, the own stream of a delta level: raw parts
// contribute zero-copy sub-slices, disk parts whole decoded codec blocks,
// stitched across part seams in one stream. A returned block is never empty
// and stays valid only until the following NextBlock call.
func (h *HybridLevel) VertBlocks(lo, hi int) *hybridVertBlocks {
	c := vertCursorPool.Get().(*hybridVertBlocks)
	c.h, c.next, c.end, c.pi, c.streaming, c.cb.err = h, lo, hi, 0, false, nil
	if lo < hi {
		c.pi = h.partIndexForOwn(lo)
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
		pEnd := p.ownBase + p.numOwn
		if c.next >= pEnd {
			c.pi++
			continue
		}
		take := min(c.end, pEnd) - c.next
		from := c.next - p.ownBase
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
