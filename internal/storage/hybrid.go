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
//
// A delta level stores of each group only the children its leaf adds — its
// own children; the rest of the group is the leaf's later siblings in its
// parent group, which the level it was built over (parent) already stores.
// Every reader still sees full ascending groups: the Walker rebuilds each
// group as the merge of the two, Extract does the same for one group, and
// the counts, bounds, Len, ParentOf and GroupStart are the full ones. A level
// is a delta level when its builder was given the level it grows (Reset);
// the explorer does so for a vertex-induced expansion without a filter over
// a level whose groups are complete, where the two sets are disjoint and
// their union is the group (see explore's appendOwn).
type HybridLevel struct {
	parts       []hybridPart
	totalVerts  int
	totalOwn    int // stored units: totalVerts on a plain level
	totalGroups int
	blockSize   int
	tracker     *memtrack.Tracker
	fs          vfs.FS
	parent      *HybridLevel // delta levels only: the level the leaves are in
	closed      bool
}

// Len is the number of embeddings in the level (the length of verts).
func (h *HybridLevel) Len() int { return h.totalVerts }

// Stored is the number of units the level stores: Len on a plain level,
// the own children on a delta level.
func (h *HybridLevel) Stored() int { return h.totalOwn }

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

// Delta reports whether the level stores only its groups' own children.
func (h *HybridLevel) Delta() bool { return h.parent != nil }

// DiskBytes reports the logical on-disk footprint of the migrated parts:
// their raw word size (4 bytes per stored unit and per group).
func (h *HybridLevel) DiskBytes() int64 {
	var b int64
	for i := range h.parts {
		if p := &h.parts[i]; p.onDisk() {
			b += int64(p.numOwn)*4 + int64(p.numGroups)*4
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
		p.vf, p.cf, p.comp, p.chunkCum, p.ownCum = nil, nil, nil, nil, nil
	}
	h.parent = nil
	return first
}

// partIndexForVert returns the index of the part containing global vert i.
func (h *HybridLevel) partIndexForVert(i int) int {
	return sort.Search(len(h.parts), func(x int) bool { return h.parts[x].vertBase > i }) - 1
}

// partIndexForOwn returns the index of the part containing stored unit i.
func (h *HybridLevel) partIndexForOwn(i int) int {
	return sort.Search(len(h.parts), func(x int) bool { return h.parts[x].ownBase > i }) - 1
}

// partIndexForGroup returns the index of the part containing global group g.
func (h *HybridLevel) partIndexForGroup(g int) int {
	return sort.Search(len(h.parts), func(x int) bool { return h.parts[x].groupBase > g }) - 1
}

// UnitAt returns verts[i]: a slice index for raw parts, one block decode
// behind one bounded pread for disk parts. On a delta level it rebuilds the
// group holding i (group).
func (h *HybridLevel) UnitAt(i int) (uint32, error) {
	if i < 0 || i >= h.totalVerts {
		return 0, fmt.Errorf("storage: unit %d out of range %d", i, h.totalVerts)
	}
	if h.parent != nil {
		g, err := h.ParentOf(i)
		if err != nil {
			return 0, err
		}
		s, err := h.GroupStart(g)
		if err != nil {
			return 0, err
		}
		units, err := h.group(g)
		if err != nil {
			return 0, err
		}
		return units[uint64(i)-s], nil
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

// group returns the units of group g, full and ascending, in a fresh slice:
// a delta group is rebuilt from its own children and, recursively, the
// parent group of its leaf. Random access only (UnitAt); the Walker keeps
// its groups materialized as it goes instead.
func (h *HybridLevel) group(g int) ([]uint32, error) {
	s, err := h.GroupStart(g)
	if err != nil {
		return nil, err
	}
	e, err := h.GroupStart(g + 1)
	if err != nil {
		return nil, err
	}
	full := int(e - s)
	if h.parent == nil {
		return h.stored(int(s), int(s)+full)
	}
	q, err := h.parent.ParentOf(g)
	if err != nil {
		return nil, err
	}
	pg, err := h.parent.group(q)
	if err != nil {
		return nil, err
	}
	qs, err := h.parent.GroupStart(q)
	if err != nil {
		return nil, err
	}
	later := pg[uint64(g)-qs+1:]
	os, err := h.ownStart(g)
	if err != nil {
		return nil, err
	}
	if full < len(later) {
		return nil, fmt.Errorf("storage: delta group %d holds %d units, fewer than its leaf's %d later siblings", g, full, len(later))
	}
	own, err := h.stored(os, os+full-len(later))
	if err != nil {
		return nil, err
	}
	return mergeSorted(nil, own, later), nil
}

// stored returns the stored units [lo, hi) in a fresh slice: slices of raw
// parts, one bounded pread per disk part.
func (h *HybridLevel) stored(lo, hi int) ([]uint32, error) {
	out := make([]uint32, 0, hi-lo)
	for lo < hi {
		p := &h.parts[h.partIndexForOwn(lo)]
		end := min(hi, p.ownBase+p.numOwn)
		if !p.onDisk() {
			out = append(out, p.verts[lo-p.ownBase:end-p.ownBase]...)
		} else {
			sc := cntPool.Get().(*cntScratch)
			vals, err := p.values(true, lo-p.ownBase, end-p.ownBase, h.tracker, sc)
			out = append(out, vals...)
			cntPool.Put(sc)
			if err != nil {
				return nil, err
			}
		}
		lo = end
	}
	return out, nil
}

// ownStart returns the stored index at which group g's own children start
// (g may equal Groups()); on a plain level, GroupStart(g). A delta part keeps
// it every CntChunk groups (ownCum); in between, the groups' own children
// are their full children less their leaves' later siblings, which the
// parent level's bounds give (laterSiblings).
func (h *HybridLevel) ownStart(g int) (int, error) {
	if h.parent == nil {
		s, err := h.GroupStart(g)
		return int(s), err
	}
	if g == h.totalGroups {
		return h.totalOwn, nil
	}
	p := &h.parts[h.partIndexForGroup(g)]
	j := (g - p.groupBase) / CntChunk
	own := p.ownBase
	if j > 0 {
		own += int(p.ownCum[j-1])
	}
	g0 := p.groupBase + j*CntChunk
	if g0 == g {
		return own, nil
	}
	s0, err := h.GroupStart(g0)
	if err != nil {
		return 0, err
	}
	s1, err := h.GroupStart(g)
	if err != nil {
		return 0, err
	}
	later, err := h.parent.laterSiblings(g0, g)
	if err != nil {
		return 0, err
	}
	return own + int(s1-s0) - later, nil
}

// laterSiblings returns the sum, over the embeddings x in [x0, x1), of the
// number of embeddings after x in x's group: one pass of a bound cursor
// over the groups the range touches.
func (h *HybridLevel) laterSiblings(x0, x1 int) (int, error) {
	q, err := h.ParentOf(x0)
	if err != nil {
		return 0, err
	}
	c := h.BoundBlocks(q)
	defer c.Close()
	total, x := 0, x0
	for x < x1 {
		blk, ok := c.NextBlock()
		if !ok {
			return 0, fmt.Errorf("storage: bounds of groups from %d ended before embedding %d: %v", q, x1, c.Err())
		}
		for _, b := range blk {
			e := int(b)
			if hi := min(e, x1); hi > x {
				// Σ_{y=x}^{hi−1} (e−1−y)
				n := hi - x
				total += n*(e-1) - n*(x+hi-1)/2
				x = hi
			}
			if x >= x1 {
				break
			}
		}
	}
	return total, nil
}

// mergeSorted writes the union of the ascending disjoint lists a and b to
// dst, reused, and returns it.
func mergeSorted(dst, a, b []uint32) []uint32 {
	n := len(a) + len(b)
	if cap(dst) < n {
		dst = make([]uint32, n, n+n/4)
	}
	dst = dst[:n]
	i, j, o := 0, 0, 0
	for i < len(a) && j < len(b) {
		if a[i] < b[j] {
			dst[o] = a[i]
			i++
		} else {
			dst[o] = b[j]
			j++
		}
		o++
	}
	o += copy(dst[o:], a[i:])
	copy(dst[o:], b[j:])
	return dst
}
