// Package explore drives Kaleido's level-synchronous embedding exploration
// (§4, Listing 1): an Explorer owns the CSE, expands it one level per
// iteration under the fused Definition-2 canonical filter, and parallelizes
// every operation over work-stealing chunks with pooled per-worker scratch.
//
// Three exploration units share that machinery (Mode): vertex- and
// edge-induced embeddings grow from the union of their units' neighbourhoods,
// filtered at the merge frontier; clique embeddings grow from their common
// neighbours, which the CSE already stores — a leaf's children are the
// stamped entries of its below-neighbour list, the stamp holding the leaves
// before it in its group (clique.go).
//
// Every operation is one parallel walk over the top level, run by one driver
// (walk.go). Expand stores the next level (a part-structured
// storage.HybridLevel: every part raw in memory without a budget, placed per
// part by the governor with one), each child written once, straight into its
// part; the other expansions consume what they find where it is produced —
// ExpandCountVisit counts each parent's children and hands them to a
// per-worker callback, ExpandCountTwo counts the Clique level past them, and
// ExpandVisitGroups hands each child over with the histogram of its own
// children's adjacency masks — so the largest level of a counting or
// aggregating workload — for motifs and cliques, the largest two — is never
// written (§6.5 generalized). A stored level is write-once: nothing rewrites
// it or moves its parts after its build.
//
// An Explorer is configured by what it explores (Graph, Mode) and by the
// run's one *run.Env, which it holds by pointer and passes on to the level
// builder: no run knob is declared here. The one constant of the storage
// policy lives here — the spill watermark (0.9 of the budget), an absolute
// limit on the tracker's SharedLive that the governor reads at every charge.
// A budgeted Env without a tracker is copied once with a private one, so
// placement does not depend on whether the caller reads the counts.
package explore

import (
	"context"
	"fmt"
	"math"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"kaleido/internal/graph"
	"kaleido/internal/memtrack"
	"kaleido/internal/run"
	"kaleido/internal/storage"
	"kaleido/internal/storage/vfs"
)

// Mode selects the exploration unit (§1.1: vertex-induced expansion adds one
// vertex per iteration, edge-induced adds one edge).
type Mode int

const (
	// VertexInduced embeddings are vertex sequences.
	VertexInduced Mode = iota
	// EdgeInduced embeddings are edge-id sequences.
	EdgeInduced
	// Clique embeddings are strictly decreasing vertex sequences in which
	// every vertex neighbours every other: the cliques VertexInduced stores
	// under a filter that admits only all-ones adjacency masks, each grown
	// toward lower ids instead, and found by probing below-neighbour lists
	// (graph.Below) against the leaf's stored group instead of filtering a
	// union (clique.go). A Clique explorer takes no filter.
	Clique
)

// VertexFilter is the user-defined EmbeddingFilter of the Kaleido API for
// vertex-induced exploration: may cand be appended to emb? The default
// canonical filter has already passed when it is called. adj is cand's
// adjacency mask — bit i set iff cand is adjacent to emb[i], no bit at or
// above len(emb) — carried through the candidate merge, so a filter that asks
// about adjacency to the embedding (a clique is adj == 1<<len(emb)−1) never
// probes the graph. worker identifies the calling goroutine (0..Threads-1)
// so a filter can keep per-worker scratch.
type VertexFilter func(worker int, emb []uint32, cand, adj uint32) bool

// EdgeFilter is the edge-induced EmbeddingFilter: emb holds edge ids, verts
// the sorted vertex set, cand the candidate edge id — an edge incident to
// the embedding, so at most one of its endpoints is outside verts. worker
// identifies the calling goroutine for per-worker filter scratch.
type EdgeFilter func(worker int, emb []uint32, verts []uint32, cand uint32) bool

// Config configures an Explorer: what to explore, and the run's one
// configuration (nil = the zero Env: all CPUs, no budget, no accounting).
type Config struct {
	Graph *graph.Graph
	Mode  Mode
	*run.Env
}

// spillWatermark is the fraction of the memory budget at which the governor
// starts migrating parts to disk. The headroom above it absorbs the growth
// between governor decisions.
const spillWatermark = 0.9

// Explorer drives iterative embedding exploration over one input graph,
// owning the CSE and its spilled levels.
type Explorer struct {
	cfg      Config
	threads  int    // cfg.Workers(), resolved once
	fs       vfs.FS // resolved cfg.FS (never nil)
	c        *storage.CSE
	queue    *storage.WriteQueue
	runDir   string // per-run spill subdirectory (concurrent runs may share SpillDir)
	levelSeq int
	// acct holds the cumulative spill counters; Close adds
	// the final placement snapshot and hands it to cfg.Spill.
	acct   run.SpillInfo
	ledger []int64 // tracker bytes charged per level
	closed bool

	// scratch[w] is worker w's reusable expansion state, pooled across
	// Expand/ForEach calls so the steady-state per-chunk work
	// allocates nothing.
	scratch []workerScratch
	// builder is the pooled level builder (exploration ops run one at a
	// time, so a single instance suffices), re-armed per build so its
	// part-writer slice (and, via the storage part pool, the part buffers)
	// survive across Expand iterations.
	builder *storage.HybridLevelBuilder

	// lastFanout/prevFanout are the measured children per embedding of the
	// two most recent expansions, which presizeParts extrapolates, and
	// lastStored the stored units per embedding of the last one.
	lastFanout, prevFanout, lastStored float64
	// complete reports that every group of the top level holds all the
	// canonical extensions of its parent: the level came from a
	// vertex-induced Expand without a filter. A level built over it the same
	// way is stored as a delta level (see Expand).
	complete bool
}

// workerScratch holds one worker's reusable buffers. Workers are indexed
// 0..threads-1 by runParallel, so slots are never shared.
type workerScratch struct {
	walker *storage.Walker
	// children is the buffer a walk that does not store appends each
	// parent's children to.
	children []uint32
	vstate   *vertexState
	estate   *edgeState
	// clique is Clique mode's stamps and rows.
	clique *cliqueScratch
}

// walkerFor returns the worker's walker positioned over [lo, hi).
func (e *Explorer) walkerFor(worker, lo, hi int) (*storage.Walker, error) {
	sc := &e.scratch[worker]
	if sc.walker == nil {
		w, err := storage.NewWalker(e.c, lo, hi)
		if err != nil {
			return nil, err
		}
		sc.walker = w
		return w, nil
	}
	if err := sc.walker.Reset(e.c, lo, hi); err != nil {
		return nil, err
	}
	return sc.walker, nil
}

// vertexStateFor returns the worker's vertex-induced state sized for depth k.
func (e *Explorer) vertexStateFor(worker, k int) *vertexState {
	sc := &e.scratch[worker]
	if sc.vstate == nil {
		sc.vstate = newVertexState(e.cfg.Graph, k)
	} else {
		sc.vstate.ensureDepth(k)
	}
	return sc.vstate
}

// edgeStateFor returns the worker's edge-induced state sized for depth k.
func (e *Explorer) edgeStateFor(worker, k int) *edgeState {
	sc := &e.scratch[worker]
	if sc.estate == nil {
		sc.estate = newEdgeState(e.cfg.Graph, k)
	} else {
		sc.estate.ensureDepth(k)
	}
	return sc.estate
}

// New creates an Explorer. Call InitVertices or InitEdges before Expand.
func New(cfg Config) (*Explorer, error) {
	if cfg.Graph == nil {
		return nil, fmt.Errorf("explore: nil graph")
	}
	if cfg.Env == nil {
		cfg.Env = &run.Env{}
	}
	if cfg.MemoryBudget > 0 && cfg.SpillDir == "" {
		return nil, fmt.Errorf("explore: memory budget set but no spill directory")
	}
	if cfg.MemoryBudget > 0 && cfg.Tracker == nil {
		// The governor reads the budget from tracked bytes, the stored
		// levels' included: a budget implies tracking, whether or not the
		// caller reads the counts.
		env := *cfg.Env
		env.Tracker = memtrack.New()
		cfg.Env = &env
	}
	e := &Explorer{
		cfg: cfg, threads: cfg.Workers(), fs: vfs.OrOS(cfg.FS),
		// Idle until something spills: no goroutine, no buffers.
		queue: storage.NewWriteQueue(0, cfg.Tracker),
	}
	e.scratch = make([]workerScratch, e.threads)
	if cfg.MemoryBudget > 0 {
		// Spill into a private subdirectory: concurrent runs (e.g. vended by
		// one budget-sharing engine) may point at the same SpillDir, and the
		// level files are named only by sequence within a run.
		dir, err := e.fs.MkdirTemp(cfg.SpillDir, "run-")
		if err != nil {
			return nil, fmt.Errorf("explore: spill dir: %w", err)
		}
		e.runDir = dir
	}
	return e, nil
}

// watermarkBytes is the absolute spill watermark on the budget scope's live
// bytes: spillWatermark of the memory budget, or out of reach without one.
// The scope is the run's tracker — under an Engine the combined live bytes
// of every sibling run, their in-flight builds included — so the headroom
// above the watermark is slack that keeps the combined resident bytes under
// the budget itself.
func (e *Explorer) watermarkBytes() int64 {
	if e.cfg.MemoryBudget <= 0 {
		return math.MaxInt64
	}
	return int64(spillWatermark * float64(e.cfg.MemoryBudget))
}

// InitVertices sets level 1 to the graph's vertices (optionally filtered) —
// the Init of vertex-induced and clique applications (§5).
func (e *Explorer) InitVertices(filter func(v uint32) bool) error {
	if e.cfg.Mode == EdgeInduced {
		return fmt.Errorf("explore: InitVertices on edge-induced explorer")
	}
	return e.initUnits(e.cfg.Graph.N(), filter)
}

// InitEdges sets level 1 to the graph's edge ids (optionally filtered) — the
// Init of edge-induced applications (§5).
func (e *Explorer) InitEdges(filter func(eid uint32) bool) error {
	if e.cfg.Mode != EdgeInduced {
		return fmt.Errorf("explore: InitEdges on vertex-induced explorer")
	}
	return e.initUnits(e.cfg.Graph.M(), filter)
}

// initUnits seeds level 1 with the units of [0, n) that pass filter.
func (e *Explorer) initUnits(n int, filter func(u uint32) bool) error {
	units := make([]uint32, 0, n)
	for u := uint32(0); u < uint32(n); u++ {
		if filter == nil || filter(u) {
			units = append(units, u)
		}
	}
	return e.initBase(units)
}

func (e *Explorer) initBase(units []uint32) error {
	if e.c != nil {
		return fmt.Errorf("explore: already initialized")
	}
	base := storage.NewBaseLevel(units)
	e.c = storage.NewCSE(base)
	e.charge(base.Bytes())
	return nil
}

// charge records a new level's bytes with the tracker.
func (e *Explorer) charge(b int64) {
	e.ledger = append(e.ledger, b)
	if e.cfg.Tracker != nil {
		e.cfg.Tracker.Alloc(b)
	}
}

// uncharge releases the top level's ledger entry.
func (e *Explorer) uncharge() {
	b := e.ledger[len(e.ledger)-1]
	e.ledger = e.ledger[:len(e.ledger)-1]
	if e.cfg.Tracker != nil {
		e.cfg.Tracker.Free(b)
	}
}

// Depth returns the current embedding size.
func (e *Explorer) Depth() int { return e.c.Depth() }

// Count returns the number of embeddings at the top level.
func (e *Explorer) Count() int { return e.c.Top().Len() }

// Bytes returns the resident footprint of the CSE.
func (e *Explorer) Bytes() int64 { return e.c.Bytes() }

// SpilledLevels reports how many expansions migrated at least one part to
// disk (cumulative).
func (e *Explorer) SpilledLevels() int { return e.acct.SpilledLevels }

// SpilledParts reports how many level parts expansions migrated to disk
// (cumulative). A level under memory pressure typically spills only some of
// its parts, so this exceeds SpilledLevels by the per-level spill fan-out.
func (e *Explorer) SpilledParts() int { return e.acct.SpilledParts }

// SpilledBytes reports the logical bytes (raw word size) of the disk parts
// finished levels held when they were built (cumulative).
func (e *Explorer) SpilledBytes() int64 { return e.acct.SpilledBytes }

// SpilledBytesPhysical reports the bytes those same parts actually occupied
// on disk: the size of their codec blocks, typically 2-4× below
// SpilledBytes.
func (e *Explorer) SpilledBytesPhysical() int64 { return e.acct.SpilledBytesPhysical }

// LevelStats reports the placement of every live level, base level first.
func (e *Explorer) LevelStats() []run.LevelStat {
	if e.c == nil {
		return nil
	}
	out := make([]run.LevelStat, e.c.Depth())
	for i := range out {
		l := e.c.Level(i + 1)
		out[i] = run.LevelStat{
			Len: l.Len(), Groups: l.Groups(),
			MemParts: l.MemParts(), DiskParts: l.DiskParts(), ResidentBytes: l.Bytes(),
			DiskBytes: l.DiskBytes(), DiskBytesPhysical: l.DiskBytesPhysical(),
		}
	}
	return out
}

// CSE exposes the underlying structure (read-only use).
func (e *Explorer) CSE() *storage.CSE { return e.c }

// Close releases the CSE (removing spilled files) and stops the write queue,
// after handing the run's storage accounting — the cumulative counters plus
// the final placement of the levels about to go — to cfg.Spill. Close is
// idempotent.
func (e *Explorer) Close() error {
	if e.closed {
		return nil
	}
	e.closed = true
	if out := e.cfg.Spill; out != nil {
		e.acct.Levels = e.LevelStats()
		e.acct.IsoCalls = out.IsoCalls // the aggregator's counter, not ours
		*out = e.acct
	}
	var first error
	if e.c != nil {
		if err := e.c.Close(); err != nil {
			first = err
		}
		for len(e.ledger) > 0 {
			e.uncharge()
		}
	}
	if err := e.queue.Close(); err != nil && first == nil {
		first = err
	}
	if e.runDir != "" {
		// Belt and braces: the levels and builders remove their own files;
		// the run directory itself (and anything a crashed build left
		// behind) goes with it.
		if err := e.fs.RemoveAll(e.runDir); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// armBuilder arms the pooled level builder for the parts cut at bounds over
// the top level, as a delta level over it when over is not nil (see
// Expand). The stored levels stay resident alongside the new one, and
// the tracker holds them, so the governor's one watermark on the scope's
// live bytes accounts for them; placement is decided per part, during the
// build. The builder (and, via the storage part-buffer pool, the buffers of
// parts whose levels have been closed) is reused across Expand iterations
// instead of being allocated per level.
func (e *Explorer) armBuilder(bounds []int, over *storage.HybridLevel) {
	if e.builder == nil {
		e.builder = storage.NewHybridLevelBuilder(e.cfg.Env, e.runDir, e.queue, e.watermarkBytes())
	}
	e.builder.Reset(e.levelSeq, len(bounds)-1, over)
	e.levelSeq++
	e.presizeParts(bounds, over != nil)
}

// presizeParts reserves the builder's per-part buffers before expansion
// begins by extrapolating the fan-out trend of the previous iterations, so
// the cold-start append-doubling of large level buffers (~170 MB of transient
// growth on the vertex-d4 benchmark) collapses into one allocation per part.
// A delta level stores a leaf's own children, as many as a leaf of the last
// level stored, give or take: they do not accumulate with depth the way the
// keep list does, so their count is not extrapolated. The builder caps
// reserves at its governor watermark, since reserved capacity is real
// resident memory.
func (e *Explorer) presizeParts(bounds []int, delta bool) {
	if e.c.Top().Len() == 0 || e.lastFanout <= 0 {
		return
	}
	// Fan-out typically grows with depth; extrapolate the last growth
	// ratio, capped — an early sparse level can make the ratio explode.
	f := e.lastFanout
	if delta {
		f = e.lastStored
	} else if e.prevFanout > 0 && e.prevFanout < f {
		g := f / e.prevFanout
		if g > 3 {
			g = 3
		}
		f *= g
	}
	for i := 0; i+1 < len(bounds); i++ {
		leaves := bounds[i+1] - bounds[i]
		e.builder.ReservePart(i, int(float64(leaves)*f), leaves)
	}
}

// pollEvery is how many walker runs an exploration loop processes between
// context polls: coarse enough that the ctx check never shows up in the hot
// path, fine enough that a cancelled run stops well within one chunk.
const pollEvery = 256

// ctxErr polls a context that may be nil (internal callers without
// cancellation).
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// expandChunk expands the chunk's top-level embeddings into o under the
// canonical filter plus vf or ef, using the worker's pooled scratch. The
// union modes run the fused fast path: per run, refresh the shared prefix
// and (vertex-induced) filter it once; per leaf, consume cands[k-2] ∪ N(leaf)
// as it is merged — the leaf-level candidate set is never materialized
// (Clique mode probes each leaf's below-neighbours instead, see
// expandCliques). Every leaf appends its children to the slice o hands out —
// when storing, the part buffer itself.
func (e *Explorer) expandChunk(c *chunkWalk, o *leafOut, vf VertexFilter, ef EdgeFilter) error {
	k := e.c.Depth()
	switch e.cfg.Mode {
	case Clique:
		return e.expandCliques(c, k, o)
	case VertexInduced:
		st := e.vertexStateFor(c.worker, k)
		count := vf == nil && o.build == nil && o.visit == nil
		for {
			emb, from, leaves, ok := c.next()
			if !ok {
				return c.done()
			}
			if from < k {
				st.updatePrefix(emb, from, k)
			}
			for _, u := range leaves {
				emb[k-1] = u
				if count {
					o.n += uint64(st.countStored(k, u, emb[0]))
					continue
				}
				dst, err := o.dst()
				if err != nil {
					return err
				}
				switch {
				case o.delta:
					own, later := st.appendOwn(u, emb[0], dst)
					o.putOwn(dst, own, later)
					continue
				case vf == nil:
					dst = st.appendStored(k, u, emb[0], dst)
				default:
					dst = st.appendCanonical(k, u, emb, c.worker, vf, dst)
				}
				if err := o.put(emb, dst); err != nil {
					return err
				}
			}
		}
	}
	st := e.edgeStateFor(c.worker, k)
	for {
		emb, from, leaves, ok := c.next()
		if !ok {
			return c.done()
		}
		if from < k {
			st.updatePrefix(emb, from, k)
		}
		for _, f := range leaves {
			emb[k-1] = f
			dst, err := o.dst()
			if err != nil {
				return err
			}
			if err := o.put(emb, st.appendCanonical(k, f, emb, c.worker, ef, dst)); err != nil {
				return err
			}
		}
	}
}

// expandLeafRows is ExpandVisitGroups' loop over a chunk of the stored top
// level (depth d): per run the prefix is filtered and its masks found once;
// per leaf v childList lists v's children once, with their masks and
// histogram; per child u countRows turns that histogram into u's, which
// visit gets with the masks of ⟨emb, u⟩. Nothing is written, and the
// children's level is never stored or walked.
func (e *Explorer) expandLeafRows(c *chunkWalk, st *vertexState, d int, visit RowVisitor) error {
	ext, embAdj, rows := st.ext[:d+1], st.embAdj[:d+1], st.rowsFor(d+1)
	for {
		emb, from, leaves, ok := c.next()
		if !ok {
			return c.done()
		}
		if from < d {
			st.updatePrefix(emb, from, d)
			st.prefixAdj(emb, from, d)
		}
		copy(ext, emb[:d-1])
		for _, v := range leaves {
			ext[d-1] = v
			embAdj[d-1] = st.childList(d, v, ext[0])
			for t, u := range st.kids.ids {
				ext[d] = u
				embAdj[d] = st.countRows(d+1, t, ext[0], rows)
				if err := visit(c.worker, ext, embAdj, rows); err != nil {
					return err
				}
			}
			st.unstamp(d)
		}
	}
}

// buildChunks picks the chunk (= builder part) count of a level build. A
// part that may migrate pays real fixed costs (files, write buffers, governor
// bookkeeping), so a budgeted build uses two parts per thread — enough
// placement granularity for a meaningful mem/disk split — and the all-disk
// regime (the scope's live bytes already at the watermark when the build
// starts, the question the builder's Reset asks too), where every part
// migrates anyway, falls back to one part per thread. A part that cannot
// migrate is a pair of pooled slices, nearly free, so an unbudgeted build
// keeps the fine work-stealing chunking of every other parallel walk.
func (e *Explorer) buildChunks(n int) int {
	if e.cfg.MemoryBudget <= 0 {
		return e.chunks(n)
	}
	t := e.threads
	if e.cfg.Tracker.SharedLive() < e.watermarkBytes() {
		t *= 2
	}
	if n < t {
		t = n
	}
	if t < 1 {
		t = 1
	}
	return t
}

// chunks picks the work-stealing chunk count of parallel walks.
func (e *Explorer) chunks(n int) int {
	c := e.threads * 8
	if n < c {
		c = n
	}
	if c < 1 {
		c = 1
	}
	return c
}

// partitionEven splits [0, n) into p near-equal ranges.
func partitionEven(n, p int) []int {
	if p < 1 {
		p = 1
	}
	bounds := make([]int, p+1)
	for i := 0; i <= p; i++ {
		bounds[i] = n * i / p
	}
	return bounds
}

// runParallel executes fn for every chunk index, with Threads goroutines
// pulling chunks from a shared counter (the work-steal strategy of §4.2).
// The first error flips an atomic cancel flag so the remaining workers stop
// pulling chunks instead of running the rest of the workload. Workers poll
// ctx before every chunk pull and abort with ctx.Err() once it is done, so a
// cancelled operation stops within one chunk's work (plus the finer-grained
// polls the chunk bodies run themselves).
//
// A panicking chunk (a user callback, or a bug in a walker) is recovered
// into an error instead of crashing the process: the operation fails like
// any other error, the caller's abort path reclaims the partial output, and
// sibling runs sharing the engine stay unaffected.
func (e *Explorer) runParallel(ctx context.Context, nchunks int, fn func(worker, chunk int) error) error {
	threads := e.threads
	if threads > nchunks {
		threads = nchunks
	}
	if threads < 1 {
		threads = 1
	}
	var next atomic.Int64
	var cancel atomic.Bool
	errs := make([]error, threads)
	var wg sync.WaitGroup
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					errs[w] = fmt.Errorf("explore: worker %d panic: %v\n%s", w, r, debug.Stack())
					cancel.Store(true)
				}
			}()
			for !cancel.Load() {
				if err := ctxErr(ctx); err != nil {
					errs[w] = err
					cancel.Store(true)
					return
				}
				c := int(next.Add(1)) - 1
				if c >= nchunks {
					return
				}
				if err := fn(w, c); err != nil {
					errs[w] = err
					cancel.Store(true)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// abortOp tears down a failed or cancelled walk in the order cancellation
// demands: pending write-queue buffers are discarded first (the write in
// flight drains), then a storing walk's partial level is aborted — its files
// closed and removed, so no late write lands on a closed file — and the
// queue is re-armed for the next operation.
func (e *Explorer) abortOp(store bool) {
	e.queue.Abort()
	// Drain: discarded jobs only recycle their buffers. The error state is
	// irrelevant here — the operation already failed.
	_ = e.queue.Barrier()
	if store {
		e.builder.Abort()
	}
	_ = e.queue.Reset()
}
