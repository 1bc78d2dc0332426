package storage

import (
	"errors"
	"fmt"
)

// PartRewriter rewrites one part of a hybrid level during an in-place
// filter pass (explore.FilterTop's keep sink). Group structure is preserved
// — the rewritten part keeps its group count, only the kept units are
// written back. A memory-resident part is compacted in place: writer and
// the pass's sequential reader share the part's arrays on one goroutine,
// with writes strictly trailing reads, and each bounds slot the reader has
// passed temporarily holds that group's kept count until FinishRewrite
// turns the counts back into global boundaries. A disk-resident part is
// restreamed through the write queue into fresh files that replace the old
// ones at FinishRewrite — no resident copy of the part is ever made.
type PartRewriter struct {
	p *hybridPart

	// Memory compaction.
	w   int // write index into p.verts
	g   int // local group index
	cnt uint32

	// Disk restream.
	dw  *diskPartWriter
	buf []uint32 // current group's kept units
}

// RewritePart starts a rewrite of part i. q is used only when the part is
// disk-resident.
func (h *HybridLevel) RewritePart(i int, q *WriteQueue) (*PartRewriter, error) {
	p := &h.parts[i]
	r := &PartRewriter{p: p}
	if p.onDisk() {
		vf, cf, err := openFilePair(h.fs, p.vf.Name()+".r", p.cf.Name()+".r")
		if err != nil {
			return nil, err
		}
		dw := newDiskPartWriter(q, vf, cf)
		r.dw = &dw
		r.buf = poolGetU32()
	}
	return r, nil
}

// Keep records u as kept in the current group.
func (r *PartRewriter) Keep(u uint32) {
	if r.dw != nil {
		r.buf = append(r.buf, u)
		return
	}
	r.p.verts[r.w] = u
	r.w++
	r.cnt++
}

// GroupDone closes the current group.
func (r *PartRewriter) GroupDone() error {
	if r.dw != nil {
		if r.dw.q.Failed() {
			// Stop restreaming into a queue that discards everything.
			return r.dw.q.Err()
		}
		r.dw.appendGroup(r.buf)
		r.buf = r.buf[:0]
		return nil
	}
	r.p.bounds[r.g] = uint64(r.cnt) // local count; FinishRewrite rebases
	r.g++
	r.cnt = 0
	return nil
}

// Flush completes the part's rewrite stream.
func (r *PartRewriter) Flush() error {
	if r.dw != nil {
		r.dw.flush()
	}
	return nil
}

// FinishRewrite completes an in-place filter pass: it drains the write
// queue for restreamed disk parts, verifies and swaps their fresh files in
// (removing the old ones), turns the memory parts' recorded per-group kept
// counts back into global boundaries, and rebases every part. Group counts
// are unchanged; the level shrinks to the kept units. On error the level is left in an unspecified state
// and must be Closed.
func (h *HybridLevel) FinishRewrite(rws []*PartRewriter, q *WriteQueue) error {
	anyDisk := false
	for _, r := range rws {
		if r.dw != nil {
			anyDisk = true
		}
	}
	if anyDisk {
		if err := q.Barrier(); err != nil {
			return errors.Join(err, h.AbortRewrite(rws))
		}
	}
	var swapErr error
	total := 0
	for i := range h.parts {
		p := &h.parts[i]
		r := rws[i]
		p.vertBase = total
		if r.dw != nil {
			err := r.dw.verify()
			if err == nil && r.dw.numGroups != p.numGroups {
				err = fmt.Errorf("storage: rewrite of %s closed %d groups, want %d", r.dw.vf.Name(), r.dw.numGroups, p.numGroups)
			}
			if err != nil {
				return errors.Join(err, h.AbortRewrite(rws[i:]))
			}
			if h.tracker != nil {
				h.tracker.SpillIO(r.dw.logicalBytes(), r.dw.physBytes())
			}
			// Swap the fresh files in; old-file cleanup failures are collected
			// and surfaced after the swap completes (the rewrite itself
			// succeeded — the level state below is still installed).
			if err := removeFiles(h.fs, p.vf, p.cf); err != nil && swapErr == nil {
				swapErr = err
			}
			p.vf, p.cf, p.chunkCum, p.comp = r.dw.vf, r.dw.cf, r.dw.chunkCum, r.dw.comp
			p.numVerts = r.dw.numVerts
			poolPutU32(r.buf)
			r.buf, r.dw = nil, nil
		} else {
			p.verts = p.verts[:r.w]
			p.numVerts = r.w
			cum := uint64(total)
			for g := 0; g < p.numGroups; g++ {
				cum += p.bounds[g]
				p.bounds[g] = cum
			}
		}
		total += p.numVerts
	}
	h.totalVerts = total
	return swapErr
}

// AbortRewrite discards the fresh files of an unfinished rewrite, returning
// the first cleanup failure instead of swallowing it. The level itself may
// already be partially compacted (memory parts rewrite in place), so a
// failed pass is fatal for the level — AbortRewrite only guarantees no stray
// files remain; Close the level afterwards.
func (h *HybridLevel) AbortRewrite(rws []*PartRewriter) error {
	var first error
	for _, r := range rws {
		if r == nil || r.dw == nil {
			continue
		}
		if err := removeFiles(h.fs, r.dw.vf, r.dw.cf); err != nil && first == nil {
			first = err
		}
		poolPutU32(r.buf)
		r.buf, r.dw = nil, nil
	}
	return first
}
