// Package explore drives Kaleido's level-synchronous embedding exploration
// (§4, Listing 1): an Explorer owns the CSE, expands it one level per
// iteration under the fused Definition-2 canonical filter, and parallelizes
// every operation over work-stealing chunks with pooled per-worker scratch.
//
// Three exploration units share that machinery (Mode): vertex- and
// edge-induced embeddings grow from the union of their units' neighbourhoods,
// filtered at the merge frontier; clique embeddings grow from the
// intersection — a leaf's children are the stamped entries of its forward
// neighbour list, the prefix's common neighbours stamped once per run
// (clique.go).
//
// Expansion is sink-driven: Expand produces a stream of (parent embedding,
// canonical children) pairs and emits it into a pluggable ExpandSink.
// StoreSink materializes the stream as the next CSE level (a part-structured
// storage.HybridLevel: every part raw in memory without a budget, placed per
// part by the governor with one); the terminal sinks consume it
// at the frontier instead — CountSink tallies it (ExpandCount), VisitSink
// hands every extension to a per-worker callback (ExpandVisit), so the
// largest level of a counting or aggregating workload is never written
// (§6.5 generalized). FilterTop is the keep-side analogue: the top level is
// rewritten in place, part by part, rather than copied through a fresh
// builder.
//
// An Explorer is configured by what it explores (Graph, Mode) and by the
// run's one *run.Env, which it holds by pointer and passes on to the level
// builder: no run knob is declared here. The one constant of the storage
// policy lives here — the spill watermark (0.9 of the budget).
package explore

import (
	"context"
	"fmt"
	"math"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"kaleido/internal/graph"
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
	// Clique embeddings are strictly increasing vertex sequences in which
	// every vertex neighbours every other: the levels VertexInduced stores
	// under a filter that admits only all-ones adjacency masks, found by
	// intersecting neighbour lists instead of filtering their union
	// (clique.go). A Clique explorer takes no user filter.
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
// the sorted vertex set, cand the candidate edge id. worker identifies the
// calling goroutine for per-worker filter scratch.
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
	// acct holds the cumulative spill/promote counters; Close adds
	// the final placement snapshot and hands it to cfg.Spill.
	acct   run.SpillInfo
	ledger []int64 // tracker bytes charged per level
	closed bool

	// pressure is the external back-pressure flag the budget governor
	// consults: set by the tracker's high-water callback when total tracked
	// memory (this run's CSE, and sibling runs under a shared budget)
	// crosses the budget.
	pressure        atomic.Bool
	cancelHighWater func()

	// scratch[w] is worker w's reusable expansion state, pooled across
	// Expand/ForEach/FilterTop calls so the steady-state per-chunk work
	// allocates nothing.
	scratch []workerScratch
	// builder is the pooled level builder (exploration ops run one at a
	// time, so a single instance suffices), re-armed per build so its
	// part-writer slice (and, via the storage part pool, the part buffers)
	// survive across Expand iterations.
	builder *storage.HybridLevelBuilder
	// store is the pooled StoreSink behind Expand.
	store StoreSink

	// lastFanout/prevFanout are the measured children-per-embedding of the
	// two most recent expansions, which presizeParts extrapolates.
	lastFanout, prevFanout float64
}

// workerScratch holds one worker's reusable buffers. Workers are indexed
// 0..threads-1 by runParallel, so slots are never shared.
type workerScratch struct {
	walker *storage.Walker
	x      expansion
	vstate *vertexState
	estate *edgeState
	cstate *cliqueState
}

// expansion is what one step of the expansion loop hands to a sink: a parent
// embedding and its canonical extensions. The slices are the worker's pooled
// buffers, valid only during emit.
type expansion struct {
	emb      []uint32 // the parent, leaf filled
	children []uint32
	// adj holds the children's adjacency masks, parallel to children (bit i of
	// adj[j] set iff children[j] is adjacent to emb[i]) — collected only in
	// vertex-induced mode and only for a sink that wantAdj.
	adj []uint32
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

// cliqueStateFor returns the worker's Clique-mode state sized for depth k.
func (e *Explorer) cliqueStateFor(worker, k int) *cliqueState {
	sc := &e.scratch[worker]
	if sc.cstate == nil {
		sc.cstate = newCliqueState(e.cfg.Graph, k)
	} else {
		sc.cstate.ensureDepth(k)
	}
	return sc.cstate
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
	if cfg.Tracker != nil && cfg.MemoryBudget > 0 {
		// Register at the budget scope: with an arbiter-backed tracker the
		// high-water mark is the combined live bytes of every sibling run —
		// including their in-flight builds, which the hybrid builders charge
		// to the tracker as they grow. Firing at the watermark (not the full
		// budget) keeps the headroom above it as slack, so the combined
		// resident bytes stay under the budget itself.
		e.cancelHighWater = cfg.Tracker.OnSharedHighWater(e.watermarkBytes(), func(int64) {
			e.pressure.Store(true)
		})
	}
	return e, nil
}

// watermarkBytes is the absolute spill watermark: spillWatermark of the
// memory budget, or out of reach without one.
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

// rechargeLevel replaces the ledger entry of level l (1-based) with b,
// adjusting the tracker by the delta. Unlike uncharge/charge this works for
// any resident level, which promotion below the top needs.
func (e *Explorer) rechargeLevel(l int, b int64) {
	old := e.ledger[l-1]
	e.ledger[l-1] = b
	if e.cfg.Tracker != nil {
		e.cfg.Tracker.Free(old)
		e.cfg.Tracker.Alloc(b)
	}
}

// Depth returns the current embedding size.
func (e *Explorer) Depth() int { return e.c.Depth() }

// Count returns the number of embeddings at the top level.
func (e *Explorer) Count() int { return e.c.Top().Len() }

// Bytes returns the resident footprint of the CSE.
func (e *Explorer) Bytes() int64 { return e.c.Bytes() }

// SpilledLevels reports how many expansions migrated at least one part to
// disk (cumulative; popped levels keep counting).
func (e *Explorer) SpilledLevels() int { return e.acct.SpilledLevels }

// SpilledParts reports how many level parts expansions migrated to disk
// (cumulative). A level under memory pressure typically spills only some of
// its parts, so this exceeds SpilledLevels by the per-level spill fan-out.
func (e *Explorer) SpilledParts() int { return e.acct.SpilledParts }

// PromotedParts reports how many disk-resident parts were promoted back to
// memory after an in-place FilterTop or a PopTop left the (shared) budget
// with headroom (cumulative).
func (e *Explorer) PromotedParts() int { return e.acct.PromotedParts }

// SpilledBytes reports the logical bytes (raw word size) of the disk parts
// finished levels held when they were built (cumulative; popped levels keep
// counting).
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

// promoteTop promotes disk-resident parts of top back to memory while the
// (shared, via the arbiter) budget watermark has headroom. The level's
// resident bytes are already charged, so the headroom is the watermark minus
// everything tracked: the live-byte cap covers the charges buildBudget's
// CSE-only base misses — sibling runs sharing the budget, anything a caller
// charges itself (FSM's pattern maps, MNI domains and the workers' 4·|V|-byte
// leaf markers are untracked scratch and charge nothing) — and is zero or less
// whenever the tracked total is at the watermark, so promotion never fights
// a governor that is spilling under pressure. (The pressure flag itself is
// not consulted: it is only kept current while a build runs.) Promotion is
// gated on the raw resident cost of a part but ordered by its physical read
// cost, so the parts whose files are smallest promote first.
func (e *Explorer) promoteTop(top *storage.HybridLevel) error {
	return e.promoteLevel(e.c.Depth(), top)
}

// promoteLevel is promoteTop generalized to any resident level l (1-based):
// the only difference is which ledger slot absorbs the grown resident bytes.
func (e *Explorer) promoteLevel(l int, h *storage.HybridLevel) error {
	headroom := e.buildBudget(e.c.Bytes())
	if t := e.cfg.Tracker; t != nil {
		if g := e.watermarkBytes() - t.SharedLive(); g < headroom {
			headroom = g
		}
	}
	if headroom <= 0 {
		return nil
	}
	n, err := h.Promote(headroom)
	if n > 0 {
		e.acct.PromotedParts += n
		e.rechargeLevel(l, h.Bytes())
	}
	return err
}

// promoteLevels promotes disk-resident parts of every live level, top level
// first (its data is the hottest: the next expansion reads it), while
// the shared budget watermark keeps headroom. Each promotion recomputes the
// headroom, so a lower level only reloads what the levels above it left room
// for.
func (e *Explorer) promoteLevels() error {
	for l := e.c.Depth(); l >= 1; l-- {
		h := e.c.Level(l)
		if h.DiskParts() == 0 {
			continue
		}
		if err := e.promoteLevel(l, h); err != nil {
			return err
		}
	}
	return nil
}

// PopTop discards the top level — releasing its budget charge and deleting
// any spilled files — and returns the CSE to the previous depth. The base
// level cannot be popped. Popping frees budget, so disk-resident parts of
// any still-live level that now fit — the newly exposed top first, then the
// levels below it — are promoted back to memory, exactly as after an
// in-place FilterTop. Uses the pooled per-worker scratch — do not run it
// concurrently with another operation on the same Explorer.
func (e *Explorer) PopTop() error {
	if e.c == nil {
		return fmt.Errorf("explore: not initialized")
	}
	if err := e.c.PopTop(); err != nil {
		return err
	}
	e.uncharge()
	return e.promoteLevels()
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
	if e.cancelHighWater != nil {
		e.cancelHighWater()
		e.cancelHighWater = nil
	}
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
		// the run directory itself (and anything a crashed rewrite left
		// behind) goes with it.
		if err := e.fs.RemoveAll(e.runDir); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Expand runs one exploration iteration, deriving level k+1 from level k
// under the default canonical filter plus the optional user filter (vf for
// vertex-induced mode, ef for edge-induced mode; pass the one matching the
// explorer's mode, nil for none). It is ExpandTo with the pooled StoreSink;
// see ExpandCount and ExpandVisit for the terminal sinks that skip the
// materialization.
//
// ctx cancels the iteration: workers poll it between chunks and every few
// walker runs, pending spill writes are discarded (the one in flight
// drains), the partial level is removed, and ctx.Err() is returned. A
// cancelled explorer keeps its pre-expansion levels and may still be Closed
// (reclaiming every spilled file) or driven further.
//
// Exploration operations (Expand and its sink variants, ForEach, FilterTop)
// share the explorer's pooled per-worker scratch: they parallelize
// internally, but at most one of them may run on an Explorer at a time.
func (e *Explorer) Expand(ctx context.Context, vf VertexFilter, ef EdgeFilter) error {
	return e.ExpandTo(ctx, &e.store, vf, ef)
}

// levelBuilderFor arms the pooled level builder for the parts cut at
// bounds over top, where baseBytes of the budget are already held by levels
// that will remain resident alongside the new one: the governor watermark is
// the budget share left after them, and placement is decided per part,
// during the build. The builder (and, via the storage part-buffer pool, the
// buffers of parts whose levels have been popped or filtered) is reused
// across Expand iterations instead of being allocated per level.
func (e *Explorer) levelBuilderFor(top *storage.HybridLevel, bounds []int, baseBytes int64) *storage.HybridLevelBuilder {
	// Refresh external pressure: tracked memory may already exceed the
	// watermark before this build starts (earlier levels — and, under a
	// shared arbiter, the sibling runs' data).
	e.pressure.Store(e.cfg.Tracker != nil && e.cfg.Tracker.SharedLive() >= e.watermarkBytes())
	nparts, budget := len(bounds)-1, e.buildBudget(baseBytes)
	if e.builder == nil {
		e.builder = storage.NewHybridLevelBuilder(e.cfg.Env, e.runDir, e.queue, &e.pressure, e.watermarkBytes())
	}
	e.builder.Reset(e.levelSeq, nparts, budget)
	e.levelSeq++
	e.presizeParts(top, bounds, e.builder)
	return e.builder
}

// buildBudget returns the governor watermark for a new level build: the
// spill watermark minus the bytes the resident levels already hold and minus
// the bytes the sibling runs of a shared arbiter hold (the watermark is a
// cross-run property: N runs charging one pool must together stay under one
// budget). Negative means nothing fits — every part goes straight to disk;
// without a memory budget there is no limit to take anything from.
func (e *Explorer) buildBudget(baseBytes int64) int64 {
	if e.cfg.MemoryBudget <= 0 {
		return math.MaxInt64
	}
	return e.watermarkBytes() - baseBytes - e.foreignLive()
}

// foreignLive returns the tracked live bytes held by the sibling runs of a
// shared budget arbiter (zero for a standalone tracker or none at all).
func (e *Explorer) foreignLive() int64 {
	t := e.cfg.Tracker
	if t == nil {
		return 0
	}
	if f := t.SharedLive() - t.Live(); f > 0 {
		return f
	}
	return 0
}

// presizeParts reserves the builder's per-part buffers before expansion
// begins by extrapolating the fan-out trend of the previous iterations, so
// the cold-start append-doubling of large level buffers (~170 MB of transient
// growth on the vertex-d4 benchmark) collapses into one allocation per part.
// The builder caps reserves at its governor watermark, since reserved
// capacity is real resident memory.
func (e *Explorer) presizeParts(top *storage.HybridLevel, bounds []int, b *storage.HybridLevelBuilder) {
	if top.Len() == 0 || e.lastFanout <= 0 {
		return
	}
	// Fan-out typically grows with depth; extrapolate the last growth
	// ratio, capped — an early sparse level can make the ratio explode.
	f := e.lastFanout
	if e.prevFanout > 0 && e.prevFanout < f {
		g := f / e.prevFanout
		if g > 3 {
			g = 3
		}
		f *= g
	}
	for i := 0; i+1 < len(bounds); i++ {
		leaves := bounds[i+1] - bounds[i]
		b.ReservePart(i, int(float64(leaves)*f), leaves)
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

// expandRange expands top-level embeddings [lo, hi) into sink chunk, using
// worker's pooled scratch.
func (e *Explorer) expandRange(ctx context.Context, k, lo, hi, worker, chunk int, sink ExpandSink, vf VertexFilter, ef EdgeFilter) error {
	w, err := e.walkerFor(worker, lo, hi)
	if err != nil {
		return err
	}
	defer w.Close()

	// The union modes run the fused fast path: per run, refresh the shared
	// prefix and (vertex-induced) filter it once; per leaf, consume
	// cands[k-2] ∪ N(leaf) as it is merged — the leaf-level candidate set is
	// never materialized (Clique mode intersects instead, see
	// expandCliques).
	if e.cfg.Mode == Clique {
		return e.expandCliques(ctx, w, k, worker, chunk, sink)
	}
	x := &e.scratch[worker].x

	runs := 0
	if e.cfg.Mode == VertexInduced {
		st := e.vertexStateFor(worker, k)
		wantAdj := sink.wantAdj()
		for {
			emb, from, leaves, ok := w.NextRun()
			if !ok {
				break
			}
			if runs++; runs%pollEvery == 0 {
				if err := ctxErr(ctx); err != nil {
					return err
				}
			}
			if from < k {
				st.updatePrefix(emb, from, k)
			}
			x.emb = emb
			for _, u := range leaves {
				emb[k-1] = u
				st.appendCanonical(k, u, emb, worker, vf, wantAdj, x)
				if err := sink.emit(worker, chunk, x); err != nil {
					return err
				}
			}
		}
		return w.Err()
	}
	st := e.edgeStateFor(worker, k)
	for {
		emb, from, leaves, ok := w.NextRun()
		if !ok {
			break
		}
		if runs++; runs%pollEvery == 0 {
			if err := ctxErr(ctx); err != nil {
				return err
			}
		}
		if from < k {
			st.updatePrefix(emb, from, k)
		}
		x.emb = emb
		for _, f := range leaves {
			emb[k-1] = f
			x.children = st.appendCanonical(k, f, emb, worker, ef, x.children[:0])
			if err := sink.emit(worker, chunk, x); err != nil {
				return err
			}
		}
	}
	return w.Err()
}

// ForEach walks all top-level embeddings in parallel. visit receives the
// worker index (0..Threads-1) for worker-local aggregation state and a
// reused embedding buffer it must not retain. ctx cancels the walk between
// chunks and every few runs. Like all exploration operations it uses the
// pooled per-worker scratch — do not run it concurrently with another
// operation on the same Explorer.
func (e *Explorer) ForEach(ctx context.Context, visit func(worker int, emb []uint32) error) error {
	k := e.c.Depth()
	top := e.c.Top()
	bounds := partitionEven(top.Len(), e.chunks(top.Len()))
	return e.runParallel(ctx, len(bounds)-1, func(worker, chunk int) error {
		w, err := e.walkerFor(worker, bounds[chunk], bounds[chunk+1])
		if err != nil {
			return err
		}
		defer w.Close()
		runs := 0
		for {
			emb, _, leaves, ok := w.NextRun()
			if !ok {
				break
			}
			if runs++; runs%pollEvery == 0 {
				if err := ctxErr(ctx); err != nil {
					return err
				}
			}
			for _, u := range leaves {
				emb[k-1] = u
				if err := visit(worker, emb); err != nil {
					return err
				}
			}
		}
		return w.Err()
	})
}

// buildChunks picks the chunk (= builder part) count of a level build. A
// part that may migrate pays real fixed costs (files, write buffers, governor
// bookkeeping), so a budgeted build uses two parts per thread — enough
// placement granularity for a meaningful mem/disk split — and the all-disk
// regime (budget exhausted before the build starts), where every part
// migrates anyway, falls back to one part per thread. A part that cannot
// migrate is a pair of pooled slices, nearly free, so an unbudgeted build
// keeps the fine work-stealing chunking of every other parallel walk.
func (e *Explorer) buildChunks(n int, baseBytes int64) int {
	if e.cfg.MemoryBudget <= 0 {
		return e.chunks(n)
	}
	t := e.threads
	if e.buildBudget(baseBytes) > 0 {
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

// abortOp tears down a failed or cancelled exploration operation in the
// order cancellation demands: pending write-queue buffers are discarded
// first (the write in flight drains), then abort closes and removes the
// partial output's files — so no late write lands on a closed file — and the
// queue is re-armed for the next operation.
func (e *Explorer) abortOp(abort func()) {
	e.queue.Abort()
	// Drain: discarded jobs only recycle their buffers. The error state is
	// irrelevant here — the operation already failed.
	_ = e.queue.Barrier()
	abort()
	_ = e.queue.Reset()
}
