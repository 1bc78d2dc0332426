package storage

import (
	"fmt"
	"sort"

	"kaleido/internal/memtrack"
	"kaleido/internal/storage/vfs"
)

// HybridLevel is one CSE level whose parts are individually memory- or
// disk-resident — the genuinely half-memory-half-disk storage of §4.1, and
// the one level type: every level of a CSE is one, the base unit list
// included (NewBaseLevel). Placement is per part (see hybridPart for the two
// residency states), decided during the build by the budget governor (see
// HybridLevelBuilder): a level slightly over budget keeps most parts in RAM
// and pays disk I/O only for the migrated remainder, the all-disk regime is
// simply every part on disk, and without a budget every part is raw, still in
// the buffer its worker wrote.
//
// Every operation dispatches per part: raw parts hand out zero-copy slices of
// their own arrays, disk parts decode whole codec blocks read from their
// files, and cursors stream transparently across the seams. Sequential
// cursors (VertBlocks, BoundBlocks) are the hot path; random access (UnitAt,
// ParentOf, GroupStart) only locates the t partition starts of an iteration
// and serves Extract.
type HybridLevel struct {
	parts       []hybridPart
	totalVerts  int
	totalGroups int
	blockSize   int
	tracker     *memtrack.Tracker
	fs          vfs.FS
	closed      bool
}

// Len is the number of embeddings in the level (the length of verts).
func (h *HybridLevel) Len() int { return h.totalVerts }

// Groups is the number of parent embeddings (the length of offs minus 1);
// the base level has none.
func (h *HybridLevel) Groups() int { return h.totalGroups }

// Bytes reports the resident footprint: the full arrays of raw parts and the
// block directories and sparse indexes of disk parts.
func (h *HybridLevel) Bytes() int64 {
	var b int64
	for i := range h.parts {
		b += h.parts[i].residentBytes()
	}
	return b
}

// DiskBytes reports the logical on-disk footprint of the migrated parts:
// their raw word size (4 bytes per vert and per group).
func (h *HybridLevel) DiskBytes() int64 {
	var b int64
	for i := range h.parts {
		if p := &h.parts[i]; p.onDisk() {
			b += int64(p.numVerts)*4 + int64(p.numGroups)*4
		}
	}
	return b
}

// DiskBytesPhysical reports the bytes the migrated parts actually occupy on
// disk: the size of their codec blocks.
func (h *HybridLevel) DiskBytesPhysical() int64 {
	var b int64
	for i := range h.parts {
		if p := &h.parts[i]; p.onDisk() {
			b += p.encodedBytes()
		}
	}
	return b
}

// MemParts counts the memory-resident parts holding data (empty parts carry
// no placement information and are not counted).
func (h *HybridLevel) MemParts() int {
	n := 0
	for i := range h.parts {
		p := &h.parts[i]
		if !p.onDisk() && (p.numVerts > 0 || p.numGroups > 0) {
			n++
		}
	}
	return n
}

// DiskParts counts the disk-resident parts.
func (h *HybridLevel) DiskParts() int {
	n := 0
	for i := range h.parts {
		if h.parts[i].onDisk() {
			n++
		}
	}
	return n
}

// Close removes the backing files of the disk-resident parts; raw parts
// return their buffers to the part pool, so the next level build reuses
// them instead of growing fresh arrays. The base unit list is its caller's
// allocation, not a part buffer, and is left to the collector: the pool is
// size-blind, and one more buffer in it changes which buffer every later
// part is handed.
func (h *HybridLevel) Close() error {
	if h.closed {
		return nil
	}
	h.closed = true
	var first error
	for i := range h.parts {
		p := &h.parts[i]
		if err := removeFiles(h.fs, p.vf, p.cf); err != nil && first == nil {
			first = err
		}
		if h.totalGroups > 0 {
			poolPutU32(p.verts)
		}
		poolPutU64(p.bounds)
		p.verts, p.bounds = nil, nil
		p.vf, p.cf, p.comp, p.chunkCum = nil, nil, nil, nil
	}
	return first
}

// partIndexForVert returns the index of the part containing global vert i.
func (h *HybridLevel) partIndexForVert(i int) int {
	return sort.Search(len(h.parts), func(x int) bool { return h.parts[x].vertBase > i }) - 1
}

// partIndexForGroup returns the index of the part containing global group g.
func (h *HybridLevel) partIndexForGroup(g int) int {
	return sort.Search(len(h.parts), func(x int) bool { return h.parts[x].groupBase > g }) - 1
}

// UnitAt returns verts[i]: a slice index for raw parts, one block decode
// behind one bounded pread for disk parts.
func (h *HybridLevel) UnitAt(i int) (uint32, error) {
	if i < 0 || i >= h.totalVerts {
		return 0, fmt.Errorf("storage: unit %d out of range %d", i, h.totalVerts)
	}
	p := &h.parts[h.partIndexForVert(i)]
	if !p.onDisk() {
		return p.verts[i-p.vertBase], nil
	}
	return p.unit(i-p.vertBase, h.tracker)
}

// ParentOf returns the parent index of embedding i — the unique p with
// offs[p] <= i < offs[p+1] — by binary search over the resident bounds for
// raw parts, sparse index plus one cnt block decode for disk parts. Read
// errors are returned so walker seeding surfaces corruption instead of
// silently starting from a wrong parent. The base level has no parents.
func (h *HybridLevel) ParentOf(i int) (int, error) {
	if i < 0 || i >= h.totalVerts {
		return 0, fmt.Errorf("storage: parent of %d out of range %d", i, h.totalVerts)
	}
	p := &h.parts[h.partIndexForVert(i)]
	if !p.onDisk() {
		// First local group whose end boundary exceeds i.
		j := sort.Search(len(p.bounds), func(x int) bool { return p.bounds[x] > uint64(i) })
		return p.groupBase + j, nil
	}
	li := uint64(i - p.vertBase)
	j := sort.Search(len(p.chunkCum), func(x int) bool { return p.chunkCum[x] > li }) - 1
	lo := j * CntChunk
	hi := min(lo+CntChunk, p.numGroups)
	sc := cntPool.Get().(*cntScratch)
	defer cntPool.Put(sc)
	cnts, err := p.cnts(lo, hi, h.tracker, sc)
	if err != nil {
		return 0, err
	}
	cum := p.chunkCum[j]
	for idx, c := range cnts {
		if li < cum+uint64(c) {
			return p.groupBase + lo + idx, nil
		}
		cum += uint64(c)
	}
	return p.groupBase + hi - 1, nil
}

// GroupStart returns offs[g], the index of the first child of group g; g may
// equal Groups(), addressing one past the last child.
func (h *HybridLevel) GroupStart(g int) (uint64, error) {
	if g < 0 || g > h.totalGroups {
		return 0, fmt.Errorf("storage: group %d out of range %d", g, h.totalGroups)
	}
	if g == h.totalGroups {
		return uint64(h.totalVerts), nil
	}
	p := &h.parts[h.partIndexForGroup(g)]
	lg := g - p.groupBase
	if p.onDisk() {
		return p.offAtLocal(lg, h.tracker)
	}
	if lg == 0 {
		return uint64(p.vertBase), nil
	}
	return p.bounds[lg-1], nil
}
