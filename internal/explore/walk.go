package explore

// Walks: every exploration operation is one parallel walk over the CSE's top
// level, run by one driver (walk). The driver cuts the level into chunks,
// runs them on the workers through runParallel, each worker's walker on its
// chunk, and tears a failed walk down; an operation brings only its guards,
// its loop over a chunk's runs of leaves and where each parent's output goes.
//
//	ForEach           — visits the top level itself.
//	Expand            — stores level k+1: every child is written once,
//	                    straight into its chunk's builder part (each part's
//	                    raw or disk placement decided by the budget governor).
//	ExpandCountVisit  — the same expansion consumed where it is produced
//	                    (§6.5): each parent's children are counted and handed
//	                    to an optional per-worker callback, nothing written.
//	                    ExpandCount and ExpandVisit are its two halves; it is
//	                    the Mapper of FSM's per-level aggregation.
//	ExpandCountTwo    — Clique mode: counts two levels past the top without
//	                    writing either, on the group bit rows of clique.go —
//	                    CliqueCount's (and TriangleCount's) final walk, so a
//	                    k-clique run stores k−2 levels.
//	ExpandVisitGroups — vertex-induced: visits every extension of a stored
//	                    leaf with its own children as the histogram of their
//	                    adjacency masks, neither level written — the Mapper of
//	                    motif counting, so a k-motif run stores k−2 levels.

import (
	"context"
	"fmt"
	"sync/atomic"

	"kaleido/internal/storage"
)

// pass is what a walk produces, which picks how the top level is cut.
type pass int

const (
	topPass      pass = iota // ForEach: the top level itself
	frontierPass             // an expansion consumed where it is produced
	storePass                // an expansion stored as the next level
)

// cut is the walk driver's one cutting function: the chunk bounds of a pass
// over the current top level — the level builder's parts when storing
// (buildChunks), work-stealing chunks otherwise (chunks) — with every
// interior bound of a Clique expansion at depth ≥ 2 moved back to a group
// start (alignToGroups), since a Clique leaf's stamp holds the leaves before
// it in its group.
func (e *Explorer) cut(p pass) ([]int, error) {
	top := e.c.Top()
	n := top.Len()
	nchunks := e.chunks(n)
	if p == storePass {
		nchunks = e.buildChunks(n)
	}
	bounds := partitionEven(n, nchunks)
	if p != topPass && e.cfg.Mode == Clique && e.c.Depth() >= 2 {
		return bounds, alignToGroups(top, bounds)
	}
	return bounds, nil
}

// walk is the driver of every exploration operation: it cuts the top level
// for p, arms the pooled level builder with one part per chunk when storing,
// and runs body once per chunk through runParallel, with the worker's walker
// positioned on the chunk. A failed walk is torn down through abortOp, which
// discards a storing walk's partial level.
func (e *Explorer) walk(ctx context.Context, p pass, body func(c chunkWalk) error) error {
	bounds, err := e.cut(p)
	if err != nil {
		return err
	}
	if p == storePass {
		e.armBuilder(bounds)
	}
	err = e.runParallel(ctx, len(bounds)-1, func(worker, chunk int) error {
		w, err := e.walkerFor(worker, bounds[chunk], bounds[chunk+1])
		if err != nil {
			return err
		}
		defer w.Close()
		return body(chunkWalk{w: w, ctx: ctx, worker: worker, chunk: chunk})
	})
	if err != nil {
		e.abortOp(p == storePass)
	}
	return err
}

// chunkWalk is one worker's walk over one chunk.
type chunkWalk struct {
	w             *storage.Walker
	ctx           context.Context
	worker, chunk int
	runs          int
	err           error
}

// next returns the chunk's next run of leaves (storage.Walker.NextRun),
// polling ctx every pollEvery runs; ok is false at the end of the chunk or
// on an error, which err then reports.
func (c *chunkWalk) next() (emb []uint32, from int, leaves []uint32, ok bool) {
	if c.runs++; c.runs%pollEvery == 0 {
		if c.err = ctxErr(c.ctx); c.err != nil {
			return nil, 0, nil, false
		}
	}
	return c.w.NextRun()
}

// done returns the error that ended the chunk's runs, if any.
func (c *chunkWalk) done() error {
	if c.err != nil {
		return c.err
	}
	return c.w.Err()
}

// leafOut is where an expansion chunk puts each parent's children: straight
// into the chunk's builder part when storing, so a stored child is written
// once, and otherwise into the worker's pooled buffer, counted and handed to
// the optional visitor.
type leafOut struct {
	build  *storage.HybridLevelBuilder // storing walks only
	chunk  int
	worker int
	buf    []uint32
	n      uint64 // children produced, of a walk that does not store
	visit  GroupVisitor
}

// dst returns the slice the next parent's children are appended to.
func (o *leafOut) dst() ([]uint32, error) {
	if o.build != nil {
		return o.build.Part(o.chunk).NextGroup()
	}
	return o.buf[:0], nil
}

// put takes the children of emb, appended to dst's slice. A committed part
// buffer is the part's own: o keeps no reference to it.
func (o *leafOut) put(emb, children []uint32) error {
	if o.build != nil {
		o.build.Part(o.chunk).CommitGroup(children)
		return nil
	}
	o.buf = children
	o.n += uint64(len(children))
	if o.visit != nil {
		return o.visit(o.worker, emb, children)
	}
	return nil
}

// ready checks what an expansion needs: an initialized explorer, a live
// ctx, no user filter in Clique mode, and at most maskBits units in the
// embeddings it reaches, levels past the top level — a mask has a bit per
// embedding position, so a deeper level would mis-filter.
func (e *Explorer) ready(ctx context.Context, levels int, filtered bool) error {
	if e.c == nil {
		return fmt.Errorf("explore: not initialized")
	}
	if err := ctxErr(ctx); err != nil {
		return err
	}
	if filtered && e.cfg.Mode == Clique {
		return fmt.Errorf("explore: clique exploration takes no user filter")
	}
	if e.c.Depth()+levels > maskBits {
		return fmt.Errorf("explore: cannot expand past %d units per embedding", maskBits)
	}
	return nil
}

// ForEach walks all top-level embeddings in parallel. visit receives the
// worker index (0..Threads-1) for worker-local aggregation state and a
// reused embedding buffer it must not retain. ctx cancels the walk between
// chunks and every few runs. Like all exploration operations it uses the
// pooled per-worker scratch — do not run it concurrently with another
// operation on the same Explorer.
func (e *Explorer) ForEach(ctx context.Context, visit func(worker int, emb []uint32) error) error {
	k := e.c.Depth()
	return e.walk(ctx, topPass, func(c chunkWalk) error {
		for {
			emb, _, leaves, ok := c.next()
			if !ok {
				return c.done()
			}
			for _, u := range leaves {
				emb[k-1] = u
				if err := visit(c.worker, emb); err != nil {
					return err
				}
			}
		}
	})
}

// Expand runs one exploration iteration, deriving level k+1 from level k
// under the default canonical filter plus the optional user filter (vf for
// vertex-induced mode, ef for edge-induced mode; pass the one matching the
// explorer's mode, nil for none; Clique mode takes none). See ExpandCount
// and ExpandVisit for the walks that consume the new level instead of
// storing it.
//
// ctx cancels the iteration: workers poll it between chunks and every few
// walker runs, pending spill writes are discarded (the one in flight
// drains), the partial level is removed, and ctx.Err() is returned. A
// cancelled explorer keeps its pre-expansion levels and may still be Closed
// (reclaiming every spilled file) or driven further.
//
// Exploration operations (the Expand family and ForEach) share the
// explorer's pooled per-worker scratch: they parallelize internally, but at
// most one of them may run on an Explorer at a time.
func (e *Explorer) Expand(ctx context.Context, vf VertexFilter, ef EdgeFilter) error {
	if err := e.ready(ctx, 1, vf != nil || ef != nil); err != nil {
		return err
	}
	parents := e.c.Top().Len()
	err := e.walk(ctx, storePass, func(c chunkWalk) error {
		if err := e.expandChunk(&c, &leafOut{build: e.builder, chunk: c.chunk}, vf, ef); err != nil {
			return err
		}
		return e.builder.Part(c.chunk).Flush()
	})
	if err != nil {
		return err
	}
	lvl, err := e.builder.Finish()
	if err != nil {
		return err
	}
	if err := e.c.Push(lvl); err != nil {
		lvl.Close()
		return err
	}
	if dp := lvl.DiskParts(); dp > 0 {
		e.acct.SpilledLevels++
		e.acct.SpilledParts += dp
		e.acct.SpilledBytes += lvl.DiskBytes()
		e.acct.SpilledBytesPhysical += lvl.DiskBytesPhysical()
	}
	e.charge(lvl.Bytes())
	if parents > 0 {
		e.prevFanout, e.lastFanout = e.lastFanout, float64(lvl.Len())/float64(parents)
	}
	return nil
}

// GroupVisitor is the per-parent callback of ExpandCountVisit: a parent
// embedding with all its canonical extensions (possibly none).
type GroupVisitor func(worker int, emb, children []uint32) error

// ExpandCountVisit runs one exploration iteration without materializing
// the new level: it hands each parent embedding once, with all its
// canonical extensions (possibly none), to visit — unless visit is nil —
// and returns how many extensions it found, so a terminal aggregation that
// also reports a count needs no second pass over its aggregate state.
// worker indexes per-worker aggregation state (0..Threads-1); emb (leaf
// included) and children are reused buffers, valid only during the call.
// The CSE is unchanged: same depth, no bytes written. ctx cancels the walk
// (see Expand).
func (e *Explorer) ExpandCountVisit(ctx context.Context, vf VertexFilter, ef EdgeFilter, visit GroupVisitor) (uint64, error) {
	if err := e.ready(ctx, 1, vf != nil || ef != nil); err != nil {
		return 0, err
	}
	var total atomic.Uint64
	err := e.walk(ctx, frontierPass, func(c chunkWalk) error {
		sc := &e.scratch[c.worker]
		o := leafOut{worker: c.worker, buf: sc.children, visit: visit}
		err := e.expandChunk(&c, &o, vf, ef)
		sc.children = o.buf
		total.Add(o.n)
		return err
	})
	if err != nil {
		return 0, err
	}
	return total.Load(), nil
}

// ExpandCount runs one exploration iteration and returns how many embeddings
// it would produce, without materializing them (ExpandCountVisit without a
// visitor): the §6.5 terminal-consumption trick as an engine operation. The
// CSE is unchanged. ctx cancels the count (see Expand).
func (e *Explorer) ExpandCount(ctx context.Context, vf VertexFilter, ef EdgeFilter) (uint64, error) {
	return e.ExpandCountVisit(ctx, vf, ef, nil)
}

// ExpandVisit runs one exploration iteration and hands every canonical
// extension to visit instead of materializing the new level
// (ExpandCountVisit, one call per extension). worker indexes per-worker
// aggregation state (0..Threads-1); emb is a reused buffer holding the
// parent embedding (leaf included) that must not be retained; cand is the
// extension unit (a vertex id in vertex-induced mode, an edge id in
// edge-induced mode). The CSE is unchanged. ctx cancels the walk (see
// Expand).
func (e *Explorer) ExpandVisit(ctx context.Context, vf VertexFilter, ef EdgeFilter, visit func(worker int, emb []uint32, cand uint32) error) error {
	if visit == nil {
		return fmt.Errorf("explore: ExpandVisit without a visit callback")
	}
	_, err := e.ExpandCountVisit(ctx, vf, ef, func(worker int, emb, children []uint32) error {
		for _, c := range children {
			if err := visit(worker, emb, c); err != nil {
				return err
			}
		}
		return nil
	})
	return err
}

// ExpandCountTwo runs two Clique exploration iterations without
// materializing either and returns how many embeddings the second would
// produce: on a CSE of depth d, the number of (d+2)-cliques. Each stored
// leaf's children are found once, as a bit row over its group, and each
// child's children are that row ANDed with the child's own (clique.go), so
// level d+1 is never written or walked. It fails in the union modes. The
// CSE is unchanged. ctx cancels the count (see Expand).
func (e *Explorer) ExpandCountTwo(ctx context.Context) (uint64, error) {
	if e.cfg.Mode != Clique {
		return 0, fmt.Errorf("explore: a two-level count needs clique exploration")
	}
	if err := e.ready(ctx, 2, false); err != nil {
		return 0, err
	}
	var total atomic.Uint64
	err := e.walk(ctx, frontierPass, func(c chunkWalk) error {
		n, err := e.countCliquesTwo(&c)
		total.Add(n)
		return err
	})
	if err != nil {
		return 0, err
	}
	return total.Load(), nil
}

// RowVisitor is the per-extension callback of ExpandVisitGroups.
type RowVisitor func(worker int, emb, embAdj, rows []uint32) error

// maxRowDepth bounds the depth of the embeddings a row walk visits, one
// past the top level: a histogram has 2^depth counters per worker, 256 KiB
// at this depth.
const maxRowDepth = 16

// ExpandVisitGroups runs two vertex-induced exploration iterations under
// the canonical filter alone without materializing either: on a CSE of
// depth d ≥ 1 it visits every canonical (d+1)-extension of the top level
// once, with the row histogram of its own canonical extensions instead of
// the extensions, so a Mapper whose child pattern is fixed by the masks
// does the work the extensions share once per visit and nothing per
// extension:
//   - emb is the visited (d+1)-embedding and embAdj is parallel to it: bit
//     i of embAdj[l] is set iff emb[l] is adjacent to emb[i], for i < l
//     (embAdj[0] = 0). The masks are the embedding's own provenance —
//     emb[l]'s entry in the candidate set of emb[:l], the stored leaf's in
//     the run's keep list, the new vertex's in the leaf's child list —
//     found once per run, leaf and child, not once per extension;
//   - rows has length 2^(d+1): rows[m] is the number of extensions c whose
//     mask is m, i.e. c is adjacent to exactly the emb[i] with bit i of m
//     set (m ≠ 0: every extension neighbours emb). The sum of rows is the
//     visited embedding's extension count, possibly 0.
//
// Neither level is written: per stored leaf childList lists the leaf's
// children once, with their masks and histogram, and per child countRows
// corrects that histogram from the child's neighbour list (state.go).
// It fails in edge-induced and Clique mode and when the visits would pass
// maxRowDepth units. emb, embAdj and rows are reused buffers, valid only
// during the call. The CSE is unchanged. ctx cancels the walk (see Expand).
func (e *Explorer) ExpandVisitGroups(ctx context.Context, visit RowVisitor) error {
	if err := e.ready(ctx, 1, false); err != nil {
		return err
	}
	if e.cfg.Mode != VertexInduced {
		return fmt.Errorf("explore: row histograms need vertex-induced exploration")
	}
	d := e.c.Depth()
	if d+1 > maxRowDepth { // the walk visits the (d+1)-embeddings
		return fmt.Errorf("explore: row histograms stop at %d units per embedding", maxRowDepth)
	}
	if visit == nil {
		return fmt.Errorf("explore: ExpandVisitGroups without a visit callback")
	}
	return e.walk(ctx, frontierPass, func(c chunkWalk) error {
		return e.expandLeafRows(&c, e.vertexStateFor(c.worker, d+1), d, visit)
	})
}
