package explore

// KeepSink: the FilterTop side of the sink pipeline. FSM's Reducer pruning
// used to rebuild the level it had just built — walk every embedding, copy
// the kept ones through a fresh level builder, swap the result in. The keep
// sink fuses the filter into a single rewrite pass instead: a resident
// MemLevel is compacted in place (writes trail the sequential reader), the
// memory-resident parts of a HybridLevel are compacted in place per part,
// and only disk-resident parts restream through the write queue into fresh
// files. No second copy of the surviving data is ever allocated.

import (
	"context"
	"errors"
	"fmt"

	"kaleido/internal/cse"
	"kaleido/internal/storage"
)

// keepWriter consumes one chunk's verdict stream during a FilterTop pass:
// Keep for every surviving leaf of the current group, GroupDone when the
// group closes (group structure is preserved — parents may end up with
// empty groups), Flush when the chunk completes. *storage.PartRewriter
// implements it for hybrid levels.
type keepWriter interface {
	Keep(u uint32)
	GroupDone() error
	Flush() error
}

// KeepSink is the assembled consumer of one FilterTop pass: per-chunk
// writers over parent bounds, plus the completion hooks of the chosen
// strategy (in-place compaction or builder rebuild).
type KeepSink struct {
	bounds   []int
	writers  []keepWriter
	finishFn func(ctx context.Context) error
	abortFn  func()
}

// FilterTop rewrites the top level keeping only embeddings approved by keep
// — the Reducer-driven pruning of FSM (§5.1). Group structure under the
// previous level is preserved (parents may end up with empty groups).
// Resident data is rewritten in place through a KeepSink: a MemLevel top
// compacts its arrays, a HybridLevel top compacts memory parts in place and
// restreams only disk parts; other level types fall back to the copying
// builder pass. After an in-place hybrid rewrite, disk parts whose shrunken
// data now fits the (shared) budget watermark are promoted back to memory.
// ctx cancels the pass (workers poll between chunks and every few runs);
// note that an in-place rewrite may already have compacted resident data, so
// treat a cancelled or failed FilterTop as fatal for the top level and Close
// the explorer — spilled files are still reclaimed. Uses the pooled
// per-worker scratch — do not run it concurrently with another operation on
// the same Explorer.
func (e *Explorer) FilterTop(ctx context.Context, keep func(worker int, emb []uint32) bool) error {
	k := e.c.Depth()
	if k < 2 {
		return fmt.Errorf("explore: FilterTop requires depth ≥ 2")
	}
	if err := ctxErr(ctx); err != nil {
		return err
	}
	top := e.c.Top()
	s, err := e.keepSinkFor(top)
	if err != nil {
		return err
	}
	err = e.runParallel(ctx, len(s.bounds)-1, func(worker, chunk int) error {
		plo, phi := s.bounds[chunk], s.bounds[chunk+1]
		kw := s.writers[chunk]
		if err := e.filterRange(ctx, top, k, plo, phi, worker, kw, keep); err != nil {
			return err
		}
		return kw.Flush()
	})
	if err != nil {
		e.abortOp(s.abortFn)
		return err
	}
	return s.finishFn(ctx)
}

// keepSinkFor picks the rewrite strategy for the top level.
func (e *Explorer) keepSinkFor(top cse.LevelData) (*KeepSink, error) {
	switch t := top.(type) {
	case *cse.MemLevel:
		return e.memKeepSink(t)
	case *storage.HybridLevel:
		return e.hybridKeepSink(t)
	default:
		return e.rebuildKeepSink(top)
	}
}

// memKeep compacts one chunk of a MemLevel in place: kept leaves are
// written at the front of the chunk's own vert range (the write index
// trails the reader of the same goroutine), per-group kept counts go to a
// side array, and the finish hook stitches the chunks together with one
// memmove and rebuilds the offsets — no fresh arrays.
type memKeep struct {
	verts    []uint32
	w, start int
	counts   []uint32
	g        int
	cnt      uint32
}

func (m *memKeep) Keep(u uint32) {
	m.verts[m.w] = u
	m.w++
	m.cnt++
}

func (m *memKeep) GroupDone() error {
	m.counts[m.g] = m.cnt
	m.g++
	m.cnt = 0
	return nil
}

func (m *memKeep) Flush() error { return nil }

func (e *Explorer) memKeepSink(top *cse.MemLevel) (*KeepSink, error) {
	parents := e.c.Level(e.c.Depth() - 1).Len()
	bounds := partitionEven(parents, e.chunks(parents))
	nchunks := len(bounds) - 1
	counts := make([]uint32, parents)
	writers := make([]keepWriter, nchunks)
	mws := make([]*memKeep, nchunks)
	for c := 0; c < nchunks; c++ {
		plo, phi := bounds[c], bounds[c+1]
		w := int(top.Offs[plo])
		mws[c] = &memKeep{verts: top.Verts, w: w, start: w, counts: counts[plo:phi]}
		writers[c] = mws[c]
	}
	s := &KeepSink{bounds: bounds, writers: writers, abortFn: func() {}}
	s.finishFn = func(context.Context) error {
		// Stitch: each chunk's kept prefix sits at the front of its original
		// range; move them together, then rebuild the offsets from the
		// per-group counts. The moves are parallelized by cutting the chunk
		// sequence into independent segments: at a boundary where chunk c's
		// destination has reached past chunk c-1's kept data (dsts[c] ≥
		// mws[c-1].w), every later read and write stays at or right of that
		// point and every earlier one stays left of it, so the segments can
		// stitch concurrently — each one left-to-right as before (a chunk's
		// destination never overlaps a later chunk's kept data). With nothing
		// filtered every boundary is a cut (fully parallel); heavy filtering
		// degrades toward the old single pass.
		dsts := make([]int, len(mws)+1)
		for c, mw := range mws {
			dsts[c+1] = dsts[c] + (mw.w - mw.start)
		}
		segs := []int{0}
		for c := 1; c < len(mws); c++ {
			if dsts[c] >= mws[c-1].w {
				segs = append(segs, c)
			}
		}
		segs = append(segs, len(mws))
		// The stitch runs uncancellable (nil ctx): every filter chunk has
		// already succeeded, the remaining work is microseconds of memmove,
		// and aborting it midway would corrupt the level a completed pass
		// was entitled to keep.
		err := e.runParallel(nil, len(segs)-1, func(_, si int) error {
			for c := segs[si]; c < segs[si+1]; c++ {
				mw := mws[c]
				n := mw.w - mw.start
				copy(top.Verts[dsts[c]:dsts[c]+n], top.Verts[mw.start:mw.w])
			}
			return nil
		})
		if err != nil {
			return err
		}
		var off uint64
		for g, c := range counts {
			off += uint64(c)
			top.Offs[g+1] = off
		}
		e.uncharge()
		top.Verts = top.Verts[:dsts[len(mws)]]
		top.Pred = nil
		e.charge(top.Bytes())
		return nil
	}
	return s, nil
}

// hybridKeepSink rewrites a HybridLevel part by part: chunks are the parts
// themselves (part boundaries are group-aligned, so every chunk's reads and
// writes stay within one part), memory parts compact in place, disk parts
// restream into fresh files swapped in at FinishRewrite.
func (e *Explorer) hybridKeepSink(top *storage.HybridLevel) (*KeepSink, error) {
	nparts := top.NumParts()
	bounds := make([]int, nparts+1)
	for i := 0; i < nparts; i++ {
		lo, _ := top.PartGroups(i)
		bounds[i] = lo
	}
	bounds[nparts] = top.Groups()
	if e.queue == nil {
		e.queue = storage.NewWriteQueue(e.cfg.BufSize, e.cfg.Tracker)
	}
	rws := make([]*storage.PartRewriter, nparts)
	writers := make([]keepWriter, nparts)
	for i := 0; i < nparts; i++ {
		r, err := top.RewritePart(i, e.queue)
		if err != nil {
			return nil, errors.Join(err, top.AbortRewrite(rws))
		}
		rws[i] = r
		writers[i] = r
	}
	s := &KeepSink{bounds: bounds, writers: writers}
	s.finishFn = func(context.Context) error {
		if err := top.FinishRewrite(rws, e.queue); err != nil {
			return err
		}
		e.uncharge()
		e.charge(top.Bytes())
		// The filter just shrank the level: disk parts that were migrated
		// under build-time pressure may fit the budget again.
		return e.promoteTop(top)
	}
	s.abortFn = func() { top.AbortRewrite(rws) }
	return s, nil
}

// builderKeep adapts a level-builder part writer to the keepWriter stream —
// the copying fallback for level types the sink cannot rewrite in place.
type builderKeep struct {
	pw       cse.PartWriter
	children []uint32
}

func (b *builderKeep) Keep(u uint32) { b.children = append(b.children, u) }

func (b *builderKeep) GroupDone() error {
	err := b.pw.AppendGroup(b.children, nil)
	b.children = b.children[:0]
	return err
}

func (b *builderKeep) Flush() error { return b.pw.Flush() }

func (e *Explorer) rebuildKeepSink(top cse.LevelData) (*KeepSink, error) {
	parents := e.c.Level(e.c.Depth() - 1).Len()
	// The rewritten level replaces the old top, so the budget share it may
	// occupy excludes the level being replaced.
	nchunks := e.buildChunks(parents, e.c.Bytes()-top.Bytes())
	bounds := partitionEven(parents, nchunks)
	var builder cse.LevelBuilder
	if e.cfg.MemoryBudget > 0 && e.cfg.SpillDir != "" {
		hb, err := e.hybridBuilderFor(nchunks, e.c.Bytes()-top.Bytes())
		if err != nil {
			return nil, err
		}
		builder = hb
	} else {
		builder = e.memBuilderFor(nchunks)
	}
	writers := make([]keepWriter, nchunks)
	for c := 0; c < nchunks; c++ {
		writers[c] = &builderKeep{pw: builder.Part(c)}
	}
	s := &KeepSink{bounds: bounds, writers: writers}
	s.finishFn = func(context.Context) error {
		lvl, err := builder.Finish()
		if err != nil {
			return err
		}
		e.uncharge()
		if err := e.c.ReplaceTop(lvl); err != nil {
			lvl.Close()
			return err
		}
		e.charge(lvl.Bytes())
		return nil
	}
	s.abortFn = func() { builder.Abort() }
	return s, nil
}

// filterRange streams the groups of parents [plo, phi) through kw, asking
// keep about every leaf.
func (e *Explorer) filterRange(ctx context.Context, top cse.LevelData, k, plo, phi, worker int, kw keepWriter, keep func(int, []uint32) bool) error {
	lo64, err := top.GroupStart(plo)
	if err != nil {
		return err
	}
	hi64, err := top.GroupStart(phi)
	if err != nil {
		return err
	}
	lo, hi := int(lo64), int(hi64)
	w, err := e.walkerFor(worker, lo, hi)
	if err != nil {
		return err
	}
	defer w.Close()
	bc := top.BoundBlocks(plo)
	defer bc.Close()
	var ends []uint64 // unread rest of the current block of group end boundaries
	nextEnd := func() (uint64, bool) {
		if len(ends) == 0 {
			var ok bool
			if ends, ok = bc.NextBlock(); !ok {
				return 0, false
			}
		}
		end := ends[0]
		ends = ends[1:]
		return end, true
	}

	end, ok := nextEnd()
	if !ok && phi > plo {
		return fmt.Errorf("explore: missing group boundary at parent %d: %w", plo, bc.Err())
	}
	emitted := 0
	runs := 0
	for i := lo; i < hi; {
		emb, _, leaves, wok := w.NextRun()
		if !wok {
			return fmt.Errorf("explore: walker ended early at %d: %w", i, w.Err())
		}
		if runs++; runs%pollEvery == 0 {
			if err := ctxErr(ctx); err != nil {
				return err
			}
		}
		for _, u := range leaves {
			for uint64(i) >= end {
				if err := kw.GroupDone(); err != nil {
					return err
				}
				emitted++
				var bok bool
				end, bok = nextEnd()
				if !bok {
					return fmt.Errorf("explore: boundary stream ended at parent %d: %w", plo+emitted, bc.Err())
				}
			}
			emb[k-1] = u
			if keep(worker, emb) {
				kw.Keep(u)
			}
			i++
		}
	}
	// Close the open group and any trailing empty parents.
	for emitted < phi-plo {
		if err := kw.GroupDone(); err != nil {
			return err
		}
		emitted++
	}
	return nil
}
