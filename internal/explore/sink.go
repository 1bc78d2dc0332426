package explore

// The sink pipeline: Expand produces a stream of (parent embedding,
// canonical children) pairs and emits it into a pluggable ExpandSink instead
// of being hardwired to a level builder. Storing the stream as the next CSE
// level (StoreSink) is just one consumer; terminal operations — the last
// expansion of a counting or aggregating workload — plug in a sink that
// consumes the stream where it is produced, so the largest level of the run
// is never materialized (§6.5: k-motif stores only k−1 levels because the
// final expansion happens inside the Mapper; the sinks generalize that trick
// to every application, and the row walk and the two-level clique count
// take it one level further: they count the level past the next one
// without storing or (for cliques) walking the next, so k-motif and
// k-clique store k−2 levels).
//
//	StoreSink — today's Expand: build level k+1 (each part's raw or disk
//	            placement decided by the budget governor) and push it.
//	CountSink — per-worker counters; nothing is written. In Clique mode
//	            it can count two levels past the top (ExpandCountTwo):
//	            CliqueCount's (and TriangleCount's) final walk, so a
//	            k-clique run stores k−2 levels.
//	VisitSink — per-worker (emb, children) callback; the engine primitive
//	            under the Mapper of FSM's per-level aggregation.
//	RowSink   — per-worker (emb, embAdj, rows) callback, one level past
//	            the top: each extension of a stored leaf, with its
//	            children as the histogram of their adjacency masks, counted
//	            from the leaf's child list and the extension's neighbours
//	            without either level ever being written — the Mapper of
//	            motif counting.

import (
	"context"
	"fmt"

	"kaleido/internal/storage"
)

// ExpandSink consumes the output stream of one exploration iteration. The
// method set is unexported: sinks are provided by the engine (StoreSink,
// CountSink, VisitSink, RowSink) and selected per call via ExpandTo or the
// Expand/ExpandCount/ExpandVisit/ExpandVisitGroups wrappers.
type ExpandSink interface {
	// begin prepares the sink for a walk cut at bounds (len(bounds)-1
	// chunks) over the current top level.
	begin(e *Explorer, top *storage.HybridLevel, bounds []int) error
	// next returns the slice the canonical children of the next parent
	// embedding are appended to: x.children emptied or, for a storing sink,
	// the chunk's part buffer, so that a stored child is written once.
	next(worker, chunk int, x *expansion) ([]uint32, error)
	// emit consumes the canonical children of one parent embedding: x.children
	// is next's slice with them appended. It is called from worker
	// goroutines; chunks are processed one at a time per worker, in parent
	// order within a chunk. x and its slices are reused buffers, valid only
	// during the call.
	emit(worker, chunk int, x *expansion) error
	// wantRows reports whether emit reads x.rows and x.embAdj — the
	// histogram of the children's adjacency masks and the parent's own
	// masks — instead of x.children. The expansion counts them for no other
	// sink, and for this one writes no children (next is not called) and
	// hands over the parents one level past the top level.
	wantRows() bool
	// countsTwo returns the sink when it is a two-level CountSink
	// (ExpandCountTwo), whose counters a Clique walk adds each leaf's
	// grandchildren to directly, and nil otherwise.
	countsTwo() *CountSink
	// endChunk completes one chunk after its last emit.
	endChunk(worker, chunk int) error
	// finish completes the sink after every chunk succeeded.
	finish(e *Explorer) error
	// abort discards partial output after a failed walk.
	abort()
	// storing reports whether finish pushes a new CSE level — it picks the
	// chunk granularity (builder parts vs plain work stealing).
	storing() bool
}

// StoreSink materializes the expansion stream as the next CSE level — the
// classic Expand — through the explorer's pooled level builder, one builder
// part per chunk.
type StoreSink struct {
	builder *storage.HybridLevelBuilder
	parents int
}

func (s *StoreSink) storing() bool         { return true }
func (s *StoreSink) wantRows() bool        { return false }
func (s *StoreSink) countsTwo() *CountSink { return nil }

func (s *StoreSink) begin(e *Explorer, top *storage.HybridLevel, bounds []int) error {
	s.builder = e.levelBuilderFor(top, bounds, e.c.Bytes())
	s.parents = top.Len()
	return nil
}

func (s *StoreSink) next(worker, chunk int, x *expansion) ([]uint32, error) {
	return s.builder.Part(chunk).NextGroup()
}

// emit commits the part buffer the children were written into and drops the
// worker's reference to it: the buffer becomes a stored level, and a later
// walk on this explorer must not append into it.
func (s *StoreSink) emit(worker, chunk int, x *expansion) error {
	s.builder.Part(chunk).CommitGroup(x.children)
	x.children = nil
	return nil
}

func (s *StoreSink) endChunk(worker, chunk int) error {
	return s.builder.Part(chunk).Flush()
}

func (s *StoreSink) finish(e *Explorer) error {
	lvl, err := s.builder.Finish()
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
	if s.parents > 0 {
		e.prevFanout, e.lastFanout = e.lastFanout, float64(lvl.Len())/float64(s.parents)
	}
	return nil
}

func (s *StoreSink) abort() {
	if s.builder != nil {
		s.builder.Abort()
	}
}

// CountSink tallies the expansion stream into per-worker counters — the
// terminal sink of counting workloads, so the largest level of the run —
// the one that dominates bytes written — is never materialized. With two
// set (ExpandCountTwo, Clique mode only) the expansion counts the level
// past the next one instead and hands it nothing: each leaf adds its
// grandchildren, counted on its group's bit rows, to the worker's counter,
// and neither level is written.
// That is the final walk of CliqueCount (and so of TriangleCount).
type CountSink struct {
	counts []paddedCount
	total  uint64
	two    bool
}

// paddedCount keeps each worker's counter on its own cache line.
type paddedCount struct {
	n uint64
	_ [56]byte
}

func (s *CountSink) storing() bool  { return false }
func (s *CountSink) wantRows() bool { return false }

func (s *CountSink) countsTwo() *CountSink {
	if s.two {
		return s
	}
	return nil
}

func (s *CountSink) begin(e *Explorer, top *storage.HybridLevel, bounds []int) error {
	if cap(s.counts) < e.threads {
		s.counts = make([]paddedCount, e.threads)
	}
	s.counts = s.counts[:e.threads]
	for i := range s.counts {
		s.counts[i].n = 0
	}
	s.total = 0
	return nil
}

func (s *CountSink) next(worker, chunk int, x *expansion) ([]uint32, error) {
	return x.children[:0], nil
}

func (s *CountSink) emit(worker, chunk int, x *expansion) error {
	s.counts[worker].n += uint64(len(x.children))
	return nil
}

func (s *CountSink) endChunk(worker, chunk int) error { return nil }

func (s *CountSink) finish(e *Explorer) error {
	for i := range s.counts {
		s.total += s.counts[i].n
	}
	return nil
}

func (s *CountSink) abort() {}

// Total returns the number of embeddings counted: the children the
// expansion produced or, with two set, their children.
func (s *CountSink) Total() uint64 { return s.total }

// VisitSink hands the expansion stream to a per-worker callback, one parent
// embedding with all its canonical extensions per call — the Mapper-side
// consumption of §5.1 (FSM's final aggregation). Nothing is materialized.
type VisitSink struct {
	visit GroupVisitor
}

// GroupVisitor is the per-parent callback of VisitSink and ExpandCountVisit:
// a parent embedding with all its canonical extensions (possibly none).
type GroupVisitor func(worker int, emb, children []uint32) error

// perChild adapts a per-extension callback to the sink's per-parent one.
func perChild(visit func(worker int, emb []uint32, cand uint32) error) GroupVisitor {
	if visit == nil {
		return nil
	}
	return func(worker int, emb, children []uint32) error {
		for _, c := range children {
			if err := visit(worker, emb, c); err != nil {
				return err
			}
		}
		return nil
	}
}

func (s *VisitSink) storing() bool         { return false }
func (s *VisitSink) wantRows() bool        { return false }
func (s *VisitSink) countsTwo() *CountSink { return nil }

func (s *VisitSink) begin(e *Explorer, top *storage.HybridLevel, bounds []int) error {
	if s.visit == nil {
		return fmt.Errorf("explore: VisitSink without a visit callback")
	}
	return nil
}

func (s *VisitSink) next(worker, chunk int, x *expansion) ([]uint32, error) {
	return x.children[:0], nil
}

func (s *VisitSink) emit(worker, chunk int, x *expansion) error {
	return s.visit(worker, x.emb, x.children)
}

func (s *VisitSink) endChunk(worker, chunk int) error { return nil }
func (s *VisitSink) finish(e *Explorer) error         { return nil }
func (s *VisitSink) abort()                           {}

// RowSink hands the expansion one level past the top level to a per-worker
// callback, as one row histogram per extension: rows[m] is the number of
// the extension's own canonical extensions whose adjacency mask is m — all
// a Mapper needs whose pattern of a child is fixed by the parent's masks
// and the child's row (unlabeled motifs). Neither level is written: per
// stored leaf the expansion lists the leaf's children once, with their
// masks and the histogram of those masks (childList), and per child
// corrects that histogram from the child's neighbour list (countRows).
// Vertex-induced mode only, under no filter (ExpandVisitGroups passes
// none), and visiting at most maxRowDepth units.
type RowSink struct {
	visit RowVisitor
}

// RowVisitor is the per-parent callback of RowSink (ExpandVisitGroups).
type RowVisitor func(worker int, emb, embAdj, rows []uint32) error

// maxRowDepth bounds the depth of the embeddings a row walk visits, one
// past the top level: a histogram has 2^depth counters per worker, 256 KiB
// at this depth.
const maxRowDepth = 16

func (s *RowSink) storing() bool         { return false }
func (s *RowSink) wantRows() bool        { return true }
func (s *RowSink) countsTwo() *CountSink { return nil }

func (s *RowSink) begin(e *Explorer, top *storage.HybridLevel, bounds []int) error {
	if s.visit == nil {
		return fmt.Errorf("explore: RowSink without a visit callback")
	}
	return nil
}

func (s *RowSink) next(worker, chunk int, x *expansion) ([]uint32, error) {
	return nil, nil
}

func (s *RowSink) emit(worker, chunk int, x *expansion) error {
	return s.visit(worker, x.emb, x.embAdj, x.rows)
}

func (s *RowSink) endChunk(worker, chunk int) error { return nil }
func (s *RowSink) finish(e *Explorer) error         { return nil }
func (s *RowSink) abort()                           {}

// CountVisitSink fuses CountSink and VisitSink: every parent's extensions
// reach the per-worker callback and are tallied into a padded per-worker
// counter in the same pass. A workload whose terminal expansion both
// aggregates and needs the total embedding count (FSM's final MNI
// aggregation) gets the count for free instead of re-deriving it with a
// second hash pass over its aggregates.
type CountVisitSink struct {
	VisitSink
	counts []paddedCount
	total  uint64
}

func (s *CountVisitSink) begin(e *Explorer, top *storage.HybridLevel, bounds []int) error {
	if err := s.VisitSink.begin(e, top, bounds); err != nil {
		return err
	}
	if cap(s.counts) < e.threads {
		s.counts = make([]paddedCount, e.threads)
	}
	s.counts = s.counts[:e.threads]
	for i := range s.counts {
		s.counts[i].n = 0
	}
	s.total = 0
	return nil
}

func (s *CountVisitSink) emit(worker, chunk int, x *expansion) error {
	s.counts[worker].n += uint64(len(x.children))
	return s.VisitSink.emit(worker, chunk, x)
}

func (s *CountVisitSink) finish(e *Explorer) error {
	for i := range s.counts {
		s.total += s.counts[i].n
	}
	return nil
}

// Total returns the number of children the expansion produced.
func (s *CountVisitSink) Total() uint64 { return s.total }

// ExpandTo runs one exploration iteration under the default canonical filter
// plus the optional user filter, emitting the output stream into sink. It is
// the engine primitive behind Expand (StoreSink), ExpandCount and
// ExpandCountTwo (CountSink) and ExpandVisit (VisitSink). ctx cancels the
// iteration (see Expand). Like every exploration operation it uses the
// pooled per-worker scratch: at most one operation may run on an Explorer
// at a time.
func (e *Explorer) ExpandTo(ctx context.Context, sink ExpandSink, vf VertexFilter, ef EdgeFilter) error {
	if e.c == nil {
		return fmt.Errorf("explore: not initialized")
	}
	if err := ctxErr(ctx); err != nil {
		return err
	}
	if e.cfg.Mode == Clique && (vf != nil || ef != nil) {
		return fmt.Errorf("explore: clique exploration takes no user filter")
	}
	top := e.c.Top()
	n := top.Len()
	k := e.c.Depth()
	deepest := k + 1 // units per embedding the walk produces
	if sink.countsTwo() != nil {
		if e.cfg.Mode != Clique {
			return fmt.Errorf("explore: a two-level count needs clique exploration")
		}
		deepest++
	}
	if deepest > maskBits {
		// A bit per embedding position: a deeper level would mis-filter.
		return fmt.Errorf("explore: cannot expand past %d units per embedding", maskBits)
	}
	if sink.wantRows() {
		if e.cfg.Mode != VertexInduced {
			return fmt.Errorf("explore: row histograms need vertex-induced exploration")
		}
		if k+1 > maxRowDepth { // the walk visits the (k+1)-embeddings
			return fmt.Errorf("explore: row histograms stop at %d units per embedding", maxRowDepth)
		}
	}

	nchunks := e.chunks(n)
	if sink.storing() {
		nchunks = e.buildChunks(n, e.c.Bytes())
	}
	bounds := partitionEven(n, nchunks)
	if e.cfg.Mode == Clique && k >= 2 {
		// A Clique leaf's stamp holds the leaves before it in its group.
		if err := alignToGroups(top, bounds); err != nil {
			return err
		}
	}
	if err := sink.begin(e, top, bounds); err != nil {
		return err
	}
	err := e.runParallel(ctx, len(bounds)-1, func(worker, chunk int) error {
		lo, hi := bounds[chunk], bounds[chunk+1]
		if err := e.expandRange(ctx, k, lo, hi, worker, chunk, sink, vf, ef); err != nil {
			return err
		}
		return sink.endChunk(worker, chunk)
	})
	if err != nil {
		e.abortOp(sink.abort)
		return err
	}
	return sink.finish(e)
}

// ExpandCount runs one exploration iteration and returns how many embeddings
// it would produce, without materializing them (CountSink). The CSE is
// unchanged: depth stays at Depth() and no bytes are written for the counted
// level — the §6.5 terminal-consumption trick as an engine operation. ctx
// cancels the count (see Expand).
func (e *Explorer) ExpandCount(ctx context.Context, vf VertexFilter, ef EdgeFilter) (uint64, error) {
	var s CountSink
	if err := e.ExpandTo(ctx, &s, vf, ef); err != nil {
		return 0, err
	}
	return s.Total(), nil
}

// ExpandCountTwo runs two Clique exploration iterations without
// materializing either and returns how many embeddings the second would
// produce: on a CSE of depth d, the number of (d+2)-cliques (CountSink with
// two set). Each stored leaf's children are found once, as a bit row over
// its group, and each child's children are that row ANDed with the child's
// own (clique.go), so level d+1 is never written or walked. It fails in the
// union modes. The CSE is unchanged. ctx cancels the count (see Expand).
func (e *Explorer) ExpandCountTwo(ctx context.Context) (uint64, error) {
	s := CountSink{two: true}
	if err := e.ExpandTo(ctx, &s, nil, nil); err != nil {
		return 0, err
	}
	return s.Total(), nil
}

// ExpandVisit runs one exploration iteration and hands every canonical
// extension to visit instead of materializing the new level (VisitSink).
// worker indexes per-worker aggregation state (0..Threads-1); emb is a
// reused buffer holding the parent embedding (leaf included) that must not
// be retained; cand is the extension unit (a vertex id in vertex-induced
// mode, an edge id in edge-induced mode). The CSE is unchanged. ctx cancels
// the walk (see Expand).
func (e *Explorer) ExpandVisit(ctx context.Context, vf VertexFilter, ef EdgeFilter, visit func(worker int, emb []uint32, cand uint32) error) error {
	s := VisitSink{visit: perChild(visit)}
	return e.ExpandTo(ctx, &s, vf, ef)
}

// ExpandVisitGroups runs two vertex-induced exploration iterations under
// the canonical filter alone without materializing either: on a CSE of
// depth d ≥ 1 it visits every canonical (d+1)-extension of the top level
// once, with the row histogram of its own canonical extensions instead of
// the extensions (RowSink), so a Mapper whose child pattern is fixed by the
// masks does the work the extensions share once per visit and nothing per
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
// It fails in edge-induced and Clique mode and when the visits would pass
// maxRowDepth units. emb, embAdj and rows are reused buffers, valid only
// during the call. The CSE is unchanged. ctx cancels the walk (see Expand).
func (e *Explorer) ExpandVisitGroups(ctx context.Context, visit RowVisitor) error {
	s := RowSink{visit: visit}
	return e.ExpandTo(ctx, &s, nil, nil)
}

// ExpandCountVisit is ExpandVisit handing over each parent embedding once,
// with all its canonical extensions (possibly none), plus the embedding
// count of the same pass (CountVisitSink): terminal aggregations that also
// report a count do not need a second pass over their aggregate state. The
// CSE is unchanged.
func (e *Explorer) ExpandCountVisit(ctx context.Context, vf VertexFilter, ef EdgeFilter, visit GroupVisitor) (uint64, error) {
	s := CountVisitSink{VisitSink: VisitSink{visit: visit}}
	if err := e.ExpandTo(ctx, &s, vf, ef); err != nil {
		return 0, err
	}
	return s.Total(), nil
}
