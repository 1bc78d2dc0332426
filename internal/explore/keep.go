package explore

// FilterTop: the keep side of the sink pipeline. FSM's Reducer pruning used
// to rebuild the level it had just built — walk every embedding, copy the
// kept ones through a fresh level builder, swap the result in. FilterTop
// fuses the filter into a single rewrite pass instead: the memory-resident
// parts of the top level are compacted in place (writes trail the sequential
// reader of the same part), and only disk-resident parts restream through
// the write queue into fresh files. No second copy of the surviving data is
// ever allocated.

import (
	"context"
	"errors"
	"fmt"

	"kaleido/internal/storage"
)

// FilterTop rewrites the top level keeping only embeddings approved by keep
// — the Reducer-driven pruning of FSM (§5.1). Group structure under the
// previous level is preserved (parents may end up with empty groups). The
// level is rewritten part by part through storage.PartRewriter: the chunks
// of the pass are the parts themselves (part boundaries are group-aligned,
// so every chunk's reads and writes stay within one part), memory parts
// compact in place, disk parts restream into fresh files swapped in at
// FinishRewrite. Afterwards, disk parts whose shrunken data now fits the
// (shared) budget watermark are promoted back to memory. A Clique explorer
// refuses it: its next expansion reads each stored group as the whole common
// neighbour set of its parent (clique.go).
// ctx cancels the pass (workers poll between chunks and every few runs);
// note that an in-place rewrite may already have compacted resident data, so
// treat a cancelled or failed FilterTop as fatal for the top level and Close
// the explorer — spilled files are still reclaimed. Uses the pooled
// per-worker scratch — do not run it concurrently with another operation on
// the same Explorer.
func (e *Explorer) FilterTop(ctx context.Context, keep func(worker int, emb []uint32) bool) error {
	if e.cfg.Mode == Clique {
		return fmt.Errorf("explore: clique exploration takes no filter")
	}
	k := e.c.Depth()
	if k < 2 {
		return fmt.Errorf("explore: FilterTop requires depth ≥ 2")
	}
	if err := ctxErr(ctx); err != nil {
		return err
	}
	top := e.c.Top()
	rws := make([]*storage.PartRewriter, top.NumParts())
	for i := range rws {
		r, err := top.RewritePart(i, e.queue)
		if err != nil {
			return errors.Join(err, top.AbortRewrite(rws))
		}
		rws[i] = r
	}
	err := e.runParallel(ctx, len(rws), func(worker, part int) error {
		plo, phi := top.PartGroups(part)
		if err := e.filterRange(ctx, top, k, plo, phi, worker, rws[part], keep); err != nil {
			return err
		}
		return rws[part].Flush()
	})
	if err != nil {
		e.abortOp(func() { top.AbortRewrite(rws) })
		return err
	}
	if err := top.FinishRewrite(rws, e.queue); err != nil {
		return err
	}
	e.uncharge()
	e.charge(top.Bytes())
	// The filter just shrank the level: disk parts that were migrated under
	// build-time pressure may fit the budget again.
	return e.promoteTop(top)
}

// filterRange streams the groups of parents [plo, phi) through kw — Keep for
// every surviving leaf of the current group, GroupDone when the group closes
// — asking keep about every leaf.
func (e *Explorer) filterRange(ctx context.Context, top *storage.HybridLevel, k, plo, phi, worker int, kw *storage.PartRewriter, keep func(int, []uint32) bool) error {
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
