// Package cse implements Kaleido's Compressed Sparse Embedding structure
// (§3.1.1, Fig. 4): the set of k-embeddings viewed as a sparse k-dimensional
// tensor and stored level by level. Level l holds two arrays:
//
//	vert[l] — the last unit (vertex or edge id) of every l-embedding;
//	off[l]  — one entry per (l−1)-embedding: off[l][i] .. off[l][i+1] is the
//	          slice of vert[l] holding the extensions of embedding i.
//
// Each exploration iteration ascends one dimension of the tensor by pushing
// one more level. The same structure stores vertex-induced embeddings
// (units are vertex ids) and edge-induced embeddings (units are edge ids).
//
// Levels are accessed through the LevelData interface. Every level an
// exploration builds is an internal/storage.HybridLevel — part by part raw in
// memory, compressed in memory or on disk, the half-memory-half-disk hybrid
// storage of §4.1 (all raw without a budget, all-disk when every part has
// migrated). MemLevel, two plain arrays, is the base unit list under them and
// the reference the storage conformance tests compare against.
package cse

import (
	"fmt"
	"sort"
)

// LevelData is one level of a CSE: a verts array plus the offs array that
// groups it under the previous level. Implementations must support cheap
// sequential cursors (the hot path) and occasional random access (used only
// to locate the t partition boundaries of parallel exploration).
type LevelData interface {
	// Len is the number of embeddings in this level (length of verts).
	Len() int
	// Groups is the number of parent embeddings (length of offs minus 1).
	// Level 1 has no parents and returns 0.
	Groups() int
	// VertBlocks returns a sequential cursor over verts[lo:hi], delivered as
	// decoded slices so hot loops iterate plain arrays instead of paying one
	// dynamic call per unit. In-memory levels hand out sub-slices of their
	// backing array (zero copy); encoded parts decode one block at a time.
	VertBlocks(lo, hi int) VertBlockCursor
	// BoundBlocks returns a sequential cursor over the group end boundaries
	// offs[first+1 ... ], i.e. successive values of offs[i+1] starting at
	// parent index first. Level 1 implementations may return nil.
	BoundBlocks(first int) BoundBlockCursor
	// UnitAt returns verts[i] — the random-access read used by Extract; disk
	// levels serve it with one bounded pread instead of a streaming cursor.
	UnitAt(i int) (uint32, error)
	// ParentOf returns the parent index of embedding i: the unique p with
	// offs[p] <= i < offs[p+1]. Level 1 implementations may return 0. Disk
	// levels report read errors instead of guessing a parent.
	ParentOf(i int) (int, error)
	// GroupStart returns offs[g], the index of the first child of group g;
	// g may equal Groups(), addressing one past the last child. Level 1
	// implementations may return 0.
	GroupStart(g int) (uint64, error)
	// Predicted returns the §4.2 load-balance summaries: an ordered list of
	// segments covering all embeddings of the level, each with its total
	// predicted candidate size. Nil when no prediction was recorded.
	Predicted() []PredSeg
	// Bytes is the in-memory footprint of this level (disk levels report
	// only their resident buffers and summaries).
	Bytes() int64
	// Close releases any resources (files, prefetch goroutines).
	Close() error
}

// VertBlockCursor streams decoded unit blocks. A returned block is never
// empty and stays valid only until the following NextBlock call (disk
// implementations reuse one decode buffer).
type VertBlockCursor interface {
	// NextBlock returns the next run of units; ok is false once the range is
	// exhausted or a stream error occurred (check Err).
	NextBlock() ([]uint32, bool)
	Err() error
	Close() error
}

// BoundBlockCursor streams blocks of successive group end positions, with the
// same block validity rules as VertBlockCursor.
type BoundBlockCursor interface {
	NextBlock() ([]uint64, bool)
	Err() error
	Close() error
}

// PredictChunk is the granularity of the load balancer's predicted-work
// summaries: one segment per this many embeddings (segments at part seams
// may be shorter).
const PredictChunk = 4096

// PredSeg summarizes the predicted expansion work of a run of consecutive
// embeddings: Leaves embeddings whose predicted candidate sizes sum to Work.
type PredSeg struct {
	Leaves uint32
	Work   uint64
}

// PredAccum accumulates per-child predicted sizes into PredictChunk-sized
// segments — the one shared implementation behind every part writer's §4.2
// bookkeeping.
type PredAccum struct {
	Segs []PredSeg
	open PredSeg
}

// Add folds one group's per-child predictions into the open segment,
// rolling it into Segs at every PredictChunk leaves.
func (a *PredAccum) Add(preds []uint32) {
	for _, w := range preds {
		a.open.Leaves++
		a.open.Work += uint64(w)
		if a.open.Leaves == PredictChunk {
			a.Segs = append(a.Segs, a.open)
			a.open = PredSeg{}
		}
	}
}

// Flush rolls the open partial segment into Segs.
func (a *PredAccum) Flush() {
	if a.open.Leaves > 0 {
		a.Segs = append(a.Segs, a.open)
		a.open = PredSeg{}
	}
}

// Reset clears the accumulator, keeping Segs capacity.
func (a *PredAccum) Reset() {
	a.Segs = a.Segs[:0]
	a.open = PredSeg{}
}

// CSE is a stack of levels. Level 1 (index 0) is the base unit list.
type CSE struct {
	levels []LevelData
}

// New returns a CSE with the given base level.
func New(base LevelData) *CSE {
	return &CSE{levels: []LevelData{base}}
}

// Depth returns the number of levels (the current embedding size).
func (c *CSE) Depth() int { return len(c.levels) }

// Level returns level l (1-based, matching the paper's notation).
func (c *CSE) Level(l int) LevelData { return c.levels[l-1] }

// Top returns the deepest level.
func (c *CSE) Top() LevelData { return c.levels[len(c.levels)-1] }

// Push appends a new deepest level. The new level's group count must match
// the current top's embedding count.
func (c *CSE) Push(l LevelData) error {
	if l.Groups() != c.Top().Len() {
		return fmt.Errorf("cse: new level has %d groups, top has %d embeddings", l.Groups(), c.Top().Len())
	}
	c.levels = append(c.levels, l)
	return nil
}

// PopTop removes and closes the deepest level (used by level-synchronous
// pruning in FSM).
func (c *CSE) PopTop() error {
	if len(c.levels) == 1 {
		return fmt.Errorf("cse: cannot pop base level")
	}
	top := c.levels[len(c.levels)-1]
	c.levels = c.levels[:len(c.levels)-1]
	return top.Close()
}

// Bytes sums the resident footprint of all levels.
func (c *CSE) Bytes() int64 {
	var total int64
	for _, l := range c.levels {
		total += l.Bytes()
	}
	return total
}

// Close releases all levels.
func (c *CSE) Close() error {
	var first error
	for _, l := range c.levels {
		if err := l.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Extract materializes the embedding at index idx of the top level — the
// §3.1.1 "obtain an arbitrary embedding" operation, O(k·log) via per-level
// parent searches. The result is written into dst (length Depth()). Each
// level is read with one UnitAt — a single bounded pread on disk levels, no
// streaming cursor.
func (c *CSE) Extract(idx int, dst []uint32) error {
	if len(dst) != c.Depth() {
		return fmt.Errorf("cse: dst length %d, want %d", len(dst), c.Depth())
	}
	for l := c.Depth(); l >= 1; l-- {
		lv := c.levels[l-1]
		if idx < 0 || idx >= lv.Len() {
			return fmt.Errorf("cse: index %d out of range at level %d (len %d)", idx, l, lv.Len())
		}
		u, err := lv.UnitAt(idx)
		if err != nil {
			return fmt.Errorf("cse: level %d index %d: %w", l, idx, err)
		}
		dst[l-1] = u
		if l > 1 {
			p, err := lv.ParentOf(idx)
			if err != nil {
				return fmt.Errorf("cse: level %d parent of %d: %w", l, idx, err)
			}
			idx = p
		}
	}
	return nil
}

// MemLevel is a CSE level held in two plain arrays: the base level of every
// CSE, and the reference implementation of LevelData.
type MemLevel struct {
	Verts []uint32
	// Offs groups Verts under the previous level; nil for the base level.
	// When non-nil, len(Offs) = Groups()+1, Offs[0] = 0 and
	// Offs[Groups()] = len(Verts).
	Offs []uint64
	// Pred holds the load-balance segments (may be nil).
	Pred []PredSeg
}

var _ LevelData = (*MemLevel)(nil)

// NewBaseLevel wraps a unit list as a base (level 1) MemLevel.
func NewBaseLevel(units []uint32) *MemLevel {
	return &MemLevel{Verts: units}
}

// Validate checks the structural invariants of the level.
func (m *MemLevel) Validate() error {
	if m.Offs == nil {
		return nil
	}
	if len(m.Offs) < 1 || m.Offs[0] != 0 {
		return fmt.Errorf("cse: offs must start at 0")
	}
	for i := 1; i < len(m.Offs); i++ {
		if m.Offs[i] < m.Offs[i-1] {
			return fmt.Errorf("cse: offs not monotone at %d", i)
		}
	}
	if m.Offs[len(m.Offs)-1] != uint64(len(m.Verts)) {
		return fmt.Errorf("cse: offs end %d, want %d", m.Offs[len(m.Offs)-1], len(m.Verts))
	}
	return nil
}

// Len implements LevelData.
func (m *MemLevel) Len() int { return len(m.Verts) }

// Groups implements LevelData.
func (m *MemLevel) Groups() int {
	if m.Offs == nil {
		return 0
	}
	return len(m.Offs) - 1
}

// VertBlocks implements LevelData: the whole range as one zero-copy block.
func (m *MemLevel) VertBlocks(lo, hi int) VertBlockCursor {
	return &sliceVertBlocks{s: m.Verts[lo:hi]}
}

// BoundBlocks implements LevelData: one zero-copy block of end boundaries.
func (m *MemLevel) BoundBlocks(first int) BoundBlockCursor {
	if m.Offs == nil {
		return nil
	}
	return &sliceBoundBlocks{s: m.Offs[first+1:]}
}

// UnitAt implements LevelData.
func (m *MemLevel) UnitAt(i int) (uint32, error) {
	if i < 0 || i >= len(m.Verts) {
		return 0, fmt.Errorf("cse: unit %d out of range %d", i, len(m.Verts))
	}
	return m.Verts[i], nil
}

// ParentOf implements LevelData.
func (m *MemLevel) ParentOf(i int) (int, error) {
	if m.Offs == nil {
		return 0, nil
	}
	// Largest p with Offs[p] <= i.
	p := sort.Search(len(m.Offs), func(x int) bool { return m.Offs[x] > uint64(i) })
	return p - 1, nil
}

// GroupStart implements LevelData.
func (m *MemLevel) GroupStart(g int) (uint64, error) {
	if m.Offs == nil {
		return 0, nil
	}
	if g < 0 || g >= len(m.Offs) {
		return 0, fmt.Errorf("cse: group %d out of range %d", g, len(m.Offs)-1)
	}
	return m.Offs[g], nil
}

// Predicted implements LevelData.
func (m *MemLevel) Predicted() []PredSeg { return m.Pred }

// Bytes implements LevelData.
func (m *MemLevel) Bytes() int64 {
	return int64(len(m.Verts))*4 + int64(len(m.Offs))*8 + int64(len(m.Pred))*16
}

// Close implements LevelData.
func (m *MemLevel) Close() error { return nil }

type sliceVertBlocks struct {
	s    []uint32
	done bool
}

func (c *sliceVertBlocks) NextBlock() ([]uint32, bool) {
	if c.done || len(c.s) == 0 {
		return nil, false
	}
	c.done = true
	return c.s, true
}

func (c *sliceVertBlocks) Err() error   { return nil }
func (c *sliceVertBlocks) Close() error { return nil }

type sliceBoundBlocks struct {
	s    []uint64
	done bool
}

func (c *sliceBoundBlocks) NextBlock() ([]uint64, bool) {
	if c.done || len(c.s) == 0 {
		return nil, false
	}
	c.done = true
	return c.s, true
}

func (c *sliceBoundBlocks) Err() error   { return nil }
func (c *sliceBoundBlocks) Close() error { return nil }
