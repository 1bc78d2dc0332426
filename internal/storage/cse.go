// Package storage implements Kaleido's Compressed Sparse Embedding structure
// (§3.1.1, Fig. 4) and the half-memory-half-disk hybrid storage its levels
// live in (§4.1, Fig. 7).
//
// A CSE views the set of k-embeddings as a sparse k-dimensional tensor and
// stores it level by level. Level l holds two arrays:
//
//	vert[l] — the last unit (vertex or edge id) of every l-embedding;
//	off[l]  — one entry per (l−1)-embedding: off[l][i] .. off[l][i+1] is the
//	          slice of vert[l] holding the extensions of embedding i.
//
// Each exploration iteration ascends one dimension of the tensor by pushing
// one more level. The same structure stores vertex-induced embeddings (units
// are vertex ids) and edge-induced embeddings (units are edge ids). CSE is
// the stack, Extract reads one embedding back by random access, and Walker
// enumerates a range of them sequentially — the engine under every parallel
// exploration step.
//
// Every level is a HybridLevel, the base unit list included (NewBaseLevel: one
// raw part, no group bounds). Levels above it are built in t parts; every
// part starts in memory and a budget governor migrates the parts still
// growing to disk when the budget scope's live bytes (the run's tracker, an
// Engine's siblings included) reach the spill watermark, shedding sealed
// parts only as far as the overshoot requires (HybridLevelBuilder,
// governor.go), so one level's parts can be split
// between RAM and disk — the all-disk regime is simply the level whose every
// part migrated (a zero budget), and an unbudgeted run the level none of
// whose parts can: its watermark is out of reach, every part stays raw where
// it was written, and neither a file nor the write queue's goroutine ever
// comes into being. Migrated parts are written through a single writing
// queue that keeps disk writes sequential; reading streams them back through
// sliding-window prefetch cursors, so the I/O of the next window is hidden
// behind the computation on the current one.
//
// Residency is two-state (part.go), as in §4.1: a part is raw in memory
// (plain []uint32 slices, zero-copy reads) or codec blocks in a file pair on
// disk. Spilling encodes, during the part's build; a finished level is
// write-once — no part is rewritten or comes back to memory. One pair of block
// cursors (cursor.go) streams a level across both states and its part seams.
// There is one encoded format (codec.go) and no option selecting it: vertex
// IDs as group-varint zigzag deltas and group counts frame-of-reference
// coded, in self-delimiting versioned blocks (version 2: a CRC32C of the
// payload sits between the header and the payload, verified on every
// whole-block decode). Version-1 blocks — the pre-checksum format — are
// cleanly rejected, not decoded: spill files are single-run scratch, so no
// cross-version reader is needed. The per-part block directory gives the
// cursors and the random-access probes block-granular seeks, and one decoder
// (cursor.go: codecBlocks) streams every disk part through a prefetching
// window over its file span. Every byte it decodes was read from a file, so
// the decoder treats its input as untrusted (FuzzDecodeCodecBlock).
//
// The spill path is hardened against I/O failure: all file access goes
// through the vfs seam (package vfs) so tests inject faults; transient write
// and read errors are retried with bounded exponential backoff + jitter;
// checksum or truncation failures surface as ErrSpillCorrupt with block
// coordinates; ENOSPC is terminal — the governor stops spilling and the run
// aborts cleanly with ErrNoSpace.
package storage

import "fmt"

// NewBaseLevel wraps a unit list as a base (level 1) level: one raw part with
// no group bounds, charged 4 bytes per unit. The level keeps units; Close
// leaves them to the collector instead of the part pool.
func NewBaseLevel(units []uint32) *HybridLevel {
	return &HybridLevel{
		parts:      []hybridPart{{verts: units, numVerts: len(units)}},
		totalVerts: len(units),
	}
}

// CSE is a stack of levels. Level 1 (index 0) is the base unit list.
type CSE struct {
	levels []*HybridLevel
}

// NewCSE returns a CSE with the given base level.
func NewCSE(base *HybridLevel) *CSE {
	return &CSE{levels: []*HybridLevel{base}}
}

// Depth returns the number of levels (the current embedding size).
func (c *CSE) Depth() int { return len(c.levels) }

// Level returns level l (1-based, matching the paper's notation).
func (c *CSE) Level(l int) *HybridLevel { return c.levels[l-1] }

// Top returns the deepest level.
func (c *CSE) Top() *HybridLevel { return c.levels[len(c.levels)-1] }

// Push appends a new deepest level. The new level's group count must match
// the current top's embedding count.
func (c *CSE) Push(l *HybridLevel) error {
	if l.Groups() != c.Top().Len() {
		return fmt.Errorf("storage: new level has %d groups, top has %d embeddings", l.Groups(), c.Top().Len())
	}
	c.levels = append(c.levels, l)
	return nil
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
// level is read with one UnitAt — a single bounded pread on disk parts, no
// streaming cursor.
func (c *CSE) Extract(idx int, dst []uint32) error {
	if len(dst) != c.Depth() {
		return fmt.Errorf("storage: dst length %d, want %d", len(dst), c.Depth())
	}
	for l := c.Depth(); l >= 1; l-- {
		lv := c.levels[l-1]
		if idx < 0 || idx >= lv.Len() {
			return fmt.Errorf("storage: index %d out of range at level %d (len %d)", idx, l, lv.Len())
		}
		u, err := lv.UnitAt(idx)
		if err != nil {
			return fmt.Errorf("storage: level %d index %d: %w", l, idx, err)
		}
		dst[l-1] = u
		if l > 1 {
			p, err := lv.ParentOf(idx)
			if err != nil {
				return fmt.Errorf("storage: level %d parent of %d: %w", l, idx, err)
			}
			idx = p
		}
	}
	return nil
}
