package storage

import (
	"fmt"
	"sync"

	"kaleido/internal/memtrack"
	"kaleido/internal/storage/vfs"
)

// CntChunk is the group granularity of the sparse random-access index kept
// for every disk part: one cumulative child count every CntChunk groups.
// Random access (only used to locate the t partition starts of an iteration)
// costs one bounded block decode; sequential access never touches the index.
const CntChunk = 4096

// hybridPart is one part of a hybrid level, in exactly one of two residency
// states — the half-memory-half-disk split of §4.1, at part granularity:
//
//   - raw: verts+bounds populated, read as zero-copy slices;
//   - disk: vf/cf hold the part's v2 codec blocks, comp indexes them.
//
// A part moves to disk while its level is built (the governor migrates it);
// nothing else changes its state, so a finished level is never rewritten.
//
// verts (or the vert file) is the part's stored stream: every unit of a
// plain level, only the own children of a delta level's groups (see
// HybridLevel). The group counts and bounds are always the full ones.
type hybridPart struct {
	// Raw residency.
	verts  []uint32
	bounds []uint64 // global end boundary of each local group; len = numGroups

	// Disk residency.
	vf, cf   vfs.File
	comp     *partComp // block directory; nil exactly when the part is raw
	chunkCum []uint64  // chunkCum[j] = children in local groups [0, j·CntChunk)

	// ownCum[j-1] = stored units of local groups [0, j·CntChunk), j ≥ 1,
	// in either residency: a delta level's seek index into the own stream
	// (j = 0 is the part's start, so a part of at most CntChunk groups
	// needs none). nil on a plain level, whose stored units are its
	// children.
	ownCum []uint64

	numVerts  int // embeddings: the sum of the full group counts
	numOwn    int // stored units; numVerts on a plain level
	numGroups int
	vertBase  int
	ownBase   int
	groupBase int
}

func (p *hybridPart) onDisk() bool { return p.vf != nil }

// residentBytes is the part's contribution to the level's resident
// footprint: full arrays for raw parts, directory and sparse index for disk
// parts. Every term is zero in the state that does not hold it.
func (p *hybridPart) residentBytes() int64 {
	return int64(len(p.verts))*4 + int64(len(p.bounds))*8 + int64(len(p.chunkCum)+len(p.ownCum))*8 + p.comp.dirBytes()
}

// logicalBytes is the raw word footprint the part would have fully decoded
// in memory: its stored units as uint32s plus one uint64 bound per group.
func (p *hybridPart) logicalBytes() int64 {
	return int64(p.numOwn)*4 + int64(p.numGroups)*8
}

// encodedBytes is the size of a disk part's codec blocks — its two files.
func (p *hybridPart) encodedBytes() int64 { return p.comp.physVerts + p.comp.physCnts }

// cntScratch pools the buffers of the random-access probes: ParentOf and
// GroupStart run once per walker seeding — t workers per iteration — and
// previously allocated a fresh byte buffer plus decode slice on every call.
// buf receives a disk part's block bytes, blk one decoded block, out the
// assembled cnt range.
type cntScratch struct {
	buf []byte
	out []uint32
	blk []uint32
}

var cntPool = sync.Pool{New: func() any { return new(cntScratch) }}

// span locates blocks [b0, b1] of a disk part's vert or cnt stream: the file
// and its byte range.
func (p *hybridPart) span(vert bool, b0, b1 int) (f vfs.File, off, end int64) {
	if vert {
		return p.vf, p.comp.vOffs[b0], p.comp.vertEnd(b1)
	}
	return p.cf, p.comp.cOffs[b0], p.comp.cntEnd(b1)
}

// blockBytes reads the encoded bytes of blocks [b0, b1] of a disk part's vert
// or cnt stream into sc.buf with one bounded pread, and returns them with the
// file name corruption in them is reported under.
func (p *hybridPart) blockBytes(vert bool, b0, b1 int, tracker *memtrack.Tracker, sc *cntScratch) ([]byte, string, error) {
	f, off, end := p.span(vert, b0, b1)
	n := int(end - off)
	if cap(sc.buf) < n {
		sc.buf = make([]byte, n)
	}
	buf := sc.buf[:n]
	if err := retryReadAt(f, buf, off, nil, tracker); err != nil {
		return nil, "", locateCorrupt(err, f.Name(), b0) // the file ends before the block does
	}
	if tracker != nil {
		tracker.ReadIO(int64(n))
	}
	return buf, f.Name(), nil
}

// decodeBlock decodes the one complete block at the front of buf into
// sc.blk; path and b are the coordinates a CorruptError carries.
func (sc *cntScratch) decodeBlock(buf []byte, vert bool, path string, b int) ([]uint32, int, error) {
	if cap(sc.blk) < codecBlockVals {
		sc.blk = make([]uint32, codecBlockVals)
	}
	vals, consumed, err := decodeCodecBlock(buf, vert, sc.blk[:codecBlockVals])
	if err == nil && consumed == 0 {
		err = fmt.Errorf("truncated block")
	}
	if err != nil {
		return nil, 0, corruptAt(path, b, err)
	}
	return vals, consumed, nil
}

// unit returns the stored unit at local index li of a disk part: one block
// decode behind one bounded pread, with no streaming cursor or prefetch
// goroutine; the random access Extract needs.
func (p *hybridPart) unit(li int, tracker *memtrack.Tracker) (uint32, error) {
	sc := cntPool.Get().(*cntScratch)
	defer cntPool.Put(sc)
	vals, err := p.values(true, li, li+1, tracker, sc)
	if err != nil {
		return 0, err
	}
	return vals[0], nil
}

// cnts decodes the per-group child counts [lo, hi) of a disk part into
// sc's buffers (values of the cnt stream). codecBlockVals equals CntChunk,
// so the sparse-index probes behind ParentOf and GroupStart touch exactly
// one block.
func (p *hybridPart) cnts(lo, hi int, tracker *memtrack.Tracker, sc *cntScratch) ([]uint32, error) {
	return p.values(false, lo, hi, tracker, sc)
}

// values decodes the local values [lo, hi) of a disk part's vert or cnt
// stream into sc's buffers with one bounded pread; the returned slice is
// valid until sc is reused or returned to the pool.
func (p *hybridPart) values(vert bool, lo, hi int, tracker *memtrack.Tracker, sc *cntScratch) ([]uint32, error) {
	b0 := lo / codecBlockVals
	b1 := (hi - 1) / codecBlockVals
	buf, path, err := p.blockBytes(vert, b0, b1, tracker, sc)
	if err != nil {
		return nil, err
	}
	want := hi - lo
	if cap(sc.out) < want {
		sc.out = make([]uint32, 0, want)
	}
	out := sc.out[:0]
	for b := b0; b <= b1; b++ {
		vals, consumed, err := sc.decodeBlock(buf, vert, path, b)
		if err != nil {
			return nil, err
		}
		buf = buf[consumed:]
		start := max(lo-b*codecBlockVals, 0)
		stop := min(hi-b*codecBlockVals, len(vals))
		if stop > start {
			out = append(out, vals[start:stop]...)
		}
	}
	sc.out = out
	if len(out) != want {
		return nil, corruptAt(path, b0, fmt.Errorf("blocks [%d,%d] decoded %d values, want %d", b0, b1, len(out), want))
	}
	return out, nil
}

// offAtLocal returns the global offs value at local group lg of a disk part
// (the global vert index where lg's children start).
func (p *hybridPart) offAtLocal(lg int, tracker *memtrack.Tracker) (uint64, error) {
	j := lg / CntChunk
	cum := p.chunkCum[j]
	if lg > j*CntChunk {
		sc := cntPool.Get().(*cntScratch)
		defer cntPool.Put(sc)
		cnts, err := p.cnts(j*CntChunk, lg, tracker, sc)
		if err != nil {
			return 0, err
		}
		for _, c := range cnts {
			cum += uint64(c)
		}
	}
	return uint64(p.vertBase) + cum, nil
}

// removeFiles closes and removes spill files (nil entries are skipped),
// returning the first failure instead of swallowing it. The data is scratch
// output of one exploration run, useless once its part is dropped.
func removeFiles(fs vfs.FS, files ...vfs.File) error {
	fs = vfs.OrOS(fs)
	var first error
	for _, f := range files {
		if f == nil {
			continue
		}
		name := f.Name()
		if err := f.Close(); err != nil && first == nil {
			first = err
		}
		if err := fs.Remove(name); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// slicePool recycles slices through a sync.Pool without allocating per Put: a
// sync.Pool boxes what it is given, and boxing a slice allocates a copy of
// its header, so the buffers travel behind *[]T headers instead and an
// emptied header waits in a second pool for the next Put.
type slicePool[T any] struct{ bufs, hdrs sync.Pool }

// get returns an empty pooled slice, nil when the pool has none.
func (p *slicePool[T]) get() []T {
	h, _ := p.bufs.Get().(*[]T)
	if h == nil {
		return nil
	}
	s := *h
	*h = nil
	p.hdrs.Put(h)
	return s
}

func (p *slicePool[T]) put(s []T) {
	if cap(s) == 0 {
		return
	}
	h, _ := p.hdrs.Get().(*[]T)
	if h == nil {
		h = new([]T)
	}
	*h = s[:0]
	p.bufs.Put(h)
}

// partBufPool recycles the uint32 buffers of parts: the verts a closed level
// or an aborted build gives back, a migrated part's verts and counts (the
// data just moved to disk) and a resident part's counts (turned into bounds
// at Finish). Steady-state builds then allocate only what the pool cannot
// supply instead of regrowing every part from nil. partBufPool64 does the
// same for the bounds arrays of raw parts.
var (
	partBufPool   slicePool[uint32]
	partBufPool64 slicePool[uint64]
)

func poolGetU32() []uint32 { return partBufPool.get() }

func poolPutU32(s []uint32) { partBufPool.put(s) }

// poolGetU64 returns a pooled buffer of length n (contents unspecified).
func poolGetU64(n int) []uint64 {
	s := partBufPool64.get()
	if cap(s) < n {
		return make([]uint64, n)
	}
	return s[:n]
}

func poolPutU64(s []uint64) { partBufPool64.put(s) }
