package explore

// The sink pipeline: Expand produces a stream of (parent embedding,
// canonical children) pairs and emits it into a pluggable ExpandSink instead
// of being hardwired to a level builder. Storing the stream as the next CSE
// level (StoreSink) is just one consumer; terminal operations — the last
// expansion of a counting or aggregating workload — plug in a sink that
// consumes the stream where it is produced, so the largest level of the run
// is never materialized (§6.5: k-motif stores only k−1 levels because the
// final expansion happens inside the Mapper; the sinks generalize that trick
// to every application).
//
//	StoreSink — today's Expand: build level k+1 (each part's raw or disk
//	            placement decided by the budget governor) and push it.
//	CountSink — per-worker counters; nothing is written. CliqueCount's
//	            (and TriangleCount's) final expansion.
//	VisitSink — per-worker (emb, cand) callback; the engine primitive under
//	            the Mapper of motif counting and FSM's final aggregation.
//	FilterTop — the keep-side analogue (keep.go): rewrite the top level in
//	            place, part by part, under a keep predicate instead of
//	            copying it through a fresh builder.

import (
	"context"
	"fmt"

	"kaleido/internal/storage"
)

// ExpandSink consumes the output stream of one exploration iteration. The
// method set is unexported: sinks are provided by the engine (StoreSink,
// CountSink, VisitSink) and selected per call via ExpandTo or the
// Expand/ExpandCount/ExpandVisit wrappers.
type ExpandSink interface {
	// begin prepares the sink for a walk cut at bounds (len(bounds)-1
	// chunks) over the current top level.
	begin(e *Explorer, top *storage.HybridLevel, bounds []int) error
	// emit consumes the canonical children of one parent embedding. It is
	// called from worker goroutines; chunks are processed one at a time per
	// worker, in parent order within a chunk. x and its slices are reused
	// buffers, valid only during the call.
	emit(worker, chunk int, x *expansion) error
	// wantAdj reports whether emit reads x.adj, the children's adjacency
	// masks. The expansion collects them for no other sink.
	wantAdj() bool
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

func (s *StoreSink) storing() bool { return true }
func (s *StoreSink) wantAdj() bool { return false }

func (s *StoreSink) begin(e *Explorer, top *storage.HybridLevel, bounds []int) error {
	s.builder = e.levelBuilderFor(top, bounds, e.c.Bytes())
	s.parents = top.Len()
	return nil
}

func (s *StoreSink) emit(worker, chunk int, x *expansion) error {
	return s.builder.Part(chunk).AppendGroup(x.children)
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
// terminal sink of counting workloads. The final expansion of CliqueCount
// (and so of TriangleCount) runs through it: every child is a k-clique, so
// the count is the answer and the largest level of the run — the one that
// dominates bytes written — is never materialized. In Clique mode the
// expansion recognises this sink and adds each leaf's count to the worker's
// counter directly: the children are counted, never written.
type CountSink struct {
	counts []paddedCount
	total  uint64
}

// paddedCount keeps each worker's counter on its own cache line.
type paddedCount struct {
	n uint64
	_ [56]byte
}

func (s *CountSink) storing() bool { return false }
func (s *CountSink) wantAdj() bool { return false }

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

// Total returns the number of children the expansion produced.
func (s *CountSink) Total() uint64 { return s.total }

// VisitSink hands the expansion stream to a per-worker callback, one parent
// embedding with all its canonical extensions per call — the Mapper-side
// consumption of §5.1 (motif counting, FSM's final aggregation). Nothing is
// materialized. adj is set when visit reads the children's adjacency masks.
type VisitSink struct {
	visit func(worker int, emb, children, adj []uint32) error
	adj   bool
}

// perChild adapts a per-extension callback to the sink's per-parent one.
func perChild(visit func(worker int, emb []uint32, cand uint32) error) func(int, []uint32, []uint32, []uint32) error {
	if visit == nil {
		return nil
	}
	return func(worker int, emb, children, _ []uint32) error {
		for _, c := range children {
			if err := visit(worker, emb, c); err != nil {
				return err
			}
		}
		return nil
	}
}

func (s *VisitSink) storing() bool { return false }
func (s *VisitSink) wantAdj() bool { return s.adj }

func (s *VisitSink) begin(e *Explorer, top *storage.HybridLevel, bounds []int) error {
	if s.visit == nil {
		return fmt.Errorf("explore: VisitSink without a visit callback")
	}
	return nil
}

func (s *VisitSink) emit(worker, chunk int, x *expansion) error {
	return s.visit(worker, x.emb, x.children, x.adj)
}

func (s *VisitSink) endChunk(worker, chunk int) error { return nil }
func (s *VisitSink) finish(e *Explorer) error         { return nil }
func (s *VisitSink) abort()                           {}

// CountVisitSink fuses CountSink and VisitSink: every extension reaches the
// per-worker callback and is tallied into a padded per-worker counter in the
// same pass. A workload whose terminal expansion both aggregates and needs
// the total embedding count (FSM's final MNI aggregation) gets the count for
// free instead of re-deriving it with a second hash pass over its aggregates.
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
// the engine primitive behind Expand (StoreSink), ExpandCount (CountSink)
// and ExpandVisit (VisitSink). ctx cancels the iteration (see Expand). Like
// every exploration operation it uses the pooled per-worker scratch: at most
// one operation may run on an Explorer at a time.
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
	if k >= maskBits {
		// A bit per embedding position: a deeper level would mis-filter.
		return fmt.Errorf("explore: cannot expand past %d units per embedding", maskBits)
	}

	nchunks := e.chunks(n)
	if sink.storing() {
		nchunks = e.buildChunks(n, e.c.Bytes())
	}
	bounds := partitionEven(n, nchunks)
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

// ExpandVisit runs one exploration iteration and hands every canonical
// extension to visit instead of materializing the new level (VisitSink).
// worker indexes per-worker aggregation state (0..Threads-1); emb is a
// reused buffer holding the parent embedding (leaf included) that must not
// be retained; cand is the extension unit (a vertex id in vertex-induced
// mode, an edge id in edge-induced mode). The CSE is unchanged. ctx cancels
// the walk (see Expand).
func (e *Explorer) ExpandVisit(ctx context.Context, vf VertexFilter, ef EdgeFilter, visit func(worker int, emb []uint32, cand uint32) error) error {
	return e.ExpandVisitGroups(ctx, vf, ef, perChild(visit))
}

// ExpandVisitGroups is ExpandVisit handing over each parent embedding once,
// with all its canonical extensions (possibly none), so a Mapper can do the
// work the extensions share — the parent's own adjacency — once per parent.
// In vertex-induced mode adj is parallel to children: bit i of adj[j] is set
// iff children[j] is adjacent to emb[i], straight from the candidate merge, so
// the Mapper knows each child's pattern row without probing the graph; in
// edge-induced and Clique mode it is nil (a clique child's mask is all
// ones). children and adj are reused buffers like emb.
func (e *Explorer) ExpandVisitGroups(ctx context.Context, vf VertexFilter, ef EdgeFilter, visit func(worker int, emb, children, adj []uint32) error) error {
	s := VisitSink{visit: visit, adj: true}
	return e.ExpandTo(ctx, &s, vf, ef)
}

// ExpandCountVisit is ExpandVisit plus the embedding count of the same pass
// (CountVisitSink): the walk visits every canonical extension and returns how
// many there were, so terminal aggregations that also report a count do not
// need a second pass over their aggregate state. The CSE is unchanged.
func (e *Explorer) ExpandCountVisit(ctx context.Context, vf VertexFilter, ef EdgeFilter, visit func(worker int, emb []uint32, cand uint32) error) (uint64, error) {
	s := CountVisitSink{VisitSink: VisitSink{visit: perChild(visit)}}
	if err := e.ExpandTo(ctx, &s, vf, ef); err != nil {
		return 0, err
	}
	return s.Total(), nil
}
