package kaleido

import (
	"context"
	"sync"

	"kaleido/internal/apps"
	"kaleido/internal/explore"
	"kaleido/internal/memtrack"
	"kaleido/internal/run"
)

// Mode selects the exploration unit for a custom Miner.
type Mode int

const (
	// VertexInduced embeddings grow by one vertex per iteration.
	VertexInduced Mode = iota
	// EdgeInduced embeddings grow by one edge per iteration.
	EdgeInduced
)

// EmbeddingFilter is the user-defined filter of the Kaleido API (Listing 1):
// may cand (a vertex id in vertex-induced mode, an edge id in edge-induced
// mode) extend the embedding emb? The default canonical filter has already
// been applied. worker identifies the calling goroutine (0..Threads-1) so a
// filter can keep per-worker scratch. (The built-in clique and triangle
// counts use no filter: they run a clique exploration unit that reads each
// clique's common neighbours from its stored group instead. A public clique
// filter asks the graph.)
type EmbeddingFilter func(worker int, emb []uint32, cand uint32) bool

// Miner exposes the paper's exploration API (Listing 1: Init,
// EmbeddingsExplorer, ResultAggregator) for custom mining applications.
// A Miner must be Closed to release spilled levels.
type Miner struct {
	g    *Graph
	e    *explore.Explorer
	env  *run.Env
	mode Mode

	// The run's accounting is reported on the first Close (Close is
	// idempotent): to stats, the Config.Stats the Miner was created with, and
	// to en, the Engine that vended it — either may be nil.
	stats *Stats
	en    *Engine
	once  sync.Once
}

// NewMiner creates a Miner over g. ctx only gates creation; each exploration
// call takes its own context. Use Engine.NewMiner to share one memory budget
// across concurrent miners.
func (g *Graph) NewMiner(ctx context.Context, mode Mode, cfg Config) (*Miner, error) {
	// Bytes and I/O are tracked only when someone will read them: an
	// untracked Miner pays no accounting atomics at all.
	var tracker *memtrack.Tracker
	if cfg.Stats != nil {
		tracker = memtrack.New()
	}
	env, err := cfg.env(tracker)
	if err != nil {
		return nil, err
	}
	return newMiner(ctx, g, mode, env, cfg.Stats)
}

func newMiner(ctx context.Context, g *Graph, mode Mode, env *run.Env, stats *Stats) (*Miner, error) {
	if err := ctxOrBackground(ctx).Err(); err != nil {
		return nil, err
	}
	e, err := explore.New(explore.Config{Graph: g.g, Mode: modeOf(mode), Env: env})
	if err != nil {
		return nil, err
	}
	m := &Miner{g: g, e: e, env: env, mode: mode, stats: stats}
	if mode == EdgeInduced {
		err = e.InitEdges(nil)
	} else {
		err = e.InitVertices(nil)
	}
	if err != nil {
		e.Close()
		return nil, err
	}
	return m, nil
}

// Expand runs one exploration iteration under the canonical filter plus the
// optional user filter, materializing the new level in the CSE (the
// StoreSink of the expansion pipeline). Cancelling ctx aborts the iteration
// with ctx.Err(): the partial level is discarded, the previous levels stay
// usable, and Close still reclaims every spilled file.
func (m *Miner) Expand(ctx context.Context, filter EmbeddingFilter) error {
	vf, ef := m.filters(filter)
	return m.e.Expand(ctxOrBackground(ctx), vf, ef)
}

// ExpandCount runs one exploration iteration and returns how many
// embeddings it would produce without materializing them (CountSink): depth
// and intermediate data are unchanged, and zero bytes are written for the
// counted level. Use it for the final iteration of a counting workload —
// the last level dominates the bytes a run writes, and a count is all such
// workloads need (CliqueCount works this way; see §6.5 of the paper for the
// k−1-levels trick this generalizes). Cancelling ctx aborts the count with
// ctx.Err().
func (m *Miner) ExpandCount(ctx context.Context, filter EmbeddingFilter) (uint64, error) {
	vf, ef := m.filters(filter)
	return m.e.ExpandCount(ctxOrBackground(ctx), vf, ef)
}

// ExpandVisit runs one exploration iteration and hands every canonical
// extension (emb, cand) to visit instead of materializing the new level
// (VisitSink) — the Mapper-side consumption of a terminal expansion (motif
// counting, FSM's final aggregation). worker identifies the calling
// goroutine for per-worker aggregation state; emb is a reused buffer that
// must not be retained. Cancelling ctx aborts the walk with ctx.Err().
func (m *Miner) ExpandVisit(ctx context.Context, filter EmbeddingFilter, visit func(worker int, emb []uint32, cand uint32) error) error {
	vf, ef := m.filters(filter)
	if tr := m.translator(); tr != nil {
		inner := visit
		og := m.g.g
		visit = func(w int, emb []uint32, cand uint32) error {
			return inner(w, tr(w, emb), og.OrigID(cand))
		}
	}
	return m.e.ExpandVisit(ctxOrBackground(ctx), vf, ef, visit)
}

// filters adapts the public filter to both engine modes, dropping the
// adjacency mask the engine's vertex filter carries. On a relabeled
// vertex-induced graph the filter sees original ids — the same translation
// ForEach and ExpandVisit apply — so user code is id-layout agnostic.
func (m *Miner) filters(filter EmbeddingFilter) (explore.VertexFilter, explore.EdgeFilter) {
	if filter == nil {
		return nil, nil
	}
	if tr := m.translator(); tr != nil {
		inner := filter
		og := m.g.g
		filter = func(w int, emb []uint32, cand uint32) bool {
			return inner(w, tr(w, emb), og.OrigID(cand))
		}
	}
	return func(w int, emb []uint32, cand, _ uint32) bool { return filter(w, emb, cand) },
		func(w int, emb []uint32, _ []uint32, cand uint32) bool { return filter(w, emb, cand) }
}

// translator returns a per-worker buffer-reusing mapping from internal to
// original vertex ids, or nil when ids need no translation (edge-induced
// mode exposes opaque edge ids; unrelabeled graphs are the identity).
func (m *Miner) translator() func(worker int, emb []uint32) []uint32 {
	g := m.g.g
	if m.mode != VertexInduced || !g.Relabeled() {
		return nil
	}
	bufs := make([][]uint32, m.env.Workers())
	return func(w int, emb []uint32) []uint32 {
		buf := append(bufs[w][:0], emb...)
		for i, v := range buf {
			buf[i] = g.OrigID(v)
		}
		bufs[w] = buf
		return buf
	}
}

// Depth returns the current embedding size.
func (m *Miner) Depth() int { return m.e.Depth() }

// Count returns the number of embeddings at the current depth.
func (m *Miner) Count() int { return m.e.Count() }

// Bytes reports the resident footprint of the intermediate data.
func (m *Miner) Bytes() int64 { return m.e.Bytes() }

// SpilledLevels reports how many expansions migrated at least one CSE level
// part to disk.
func (m *Miner) SpilledLevels() int { return m.e.SpilledLevels() }

// SpilledParts reports how many CSE level parts were migrated to disk. The
// §4.1 storage is hybrid per part: a level near the memory budget typically
// keeps most parts resident and spills only the largest few.
func (m *Miner) SpilledParts() int { return m.e.SpilledParts() }

// PromotedParts always returns 0: a stored level never changes after its
// build, so no part goes back from disk to memory.
//
// Deprecated: parts are no longer promoted; the method stays for source
// compatibility and will be removed.
func (m *Miner) PromotedParts() int { return 0 }

// SpilledBytes reports the logical size (raw word bytes) of every part the
// run migrated to disk, cumulatively.
func (m *Miner) SpilledBytes() int64 { return m.e.SpilledBytes() }

// SpilledBytesPhysical reports what those parts' codec blocks actually
// occupied on disk — typically 2-4× below SpilledBytes.
func (m *Miner) SpilledBytesPhysical() int64 { return m.e.SpilledBytesPhysical() }

// CompressedParts always returns 0: a part is raw in memory or on disk.
//
// Deprecated: parts are no longer compressed in memory; the method stays for
// source compatibility and will be removed.
func (m *Miner) CompressedParts() int { return 0 }

// LevelStat describes the storage placement of one live CSE level.
type LevelStat struct {
	// Len and Groups are the level's embedding and parent-group counts.
	Len, Groups int
	// MemParts and DiskParts count the level's parts holding data by
	// residency — with or without a budget: an unbudgeted level reports the
	// parts it was built in (all of them MemParts), and the base level, one
	// raw part, MemParts 1 (0 when it is empty, like any empty part).
	MemParts, DiskParts int
	// ResidentBytes is the in-memory footprint (arrays plus the sparse
	// indexes of disk parts); DiskBytes is the logical on-disk footprint
	// (raw word size); DiskBytesPhysical is the bytes the disk parts' codec
	// blocks actually occupy.
	ResidentBytes, DiskBytes, DiskBytesPhysical int64
	// ResidentBytesLogical equals ResidentBytes: resident parts are raw.
	//
	// Deprecated: use ResidentBytes; the field stays for source
	// compatibility and will be removed.
	ResidentBytesLogical int64
}

// LevelStats reports the placement of every live CSE level, base first —
// the part-level view of the half-memory-half-disk hybrid storage.
func (m *Miner) LevelStats() []LevelStat {
	return publicLevelStats(m.e.LevelStats())
}

// publicLevelStats converts the internal level placement snapshot to the
// public type; shared by Miner.LevelStats and the Stats.Levels capture.
func publicLevelStats(in []run.LevelStat) []LevelStat {
	if len(in) == 0 {
		return nil
	}
	out := make([]LevelStat, len(in))
	for i, s := range in {
		out[i] = LevelStat{
			Len: s.Len, Groups: s.Groups, MemParts: s.MemParts, DiskParts: s.DiskParts,
			ResidentBytes: s.ResidentBytes, DiskBytes: s.DiskBytes, DiskBytesPhysical: s.DiskBytesPhysical,
			ResidentBytesLogical: s.ResidentBytes,
		}
	}
	return out
}

// ForEach visits every current embedding in parallel. worker identifies the
// calling goroutine (0..Threads-1) for worker-local state; emb is a reused
// buffer the callback must not retain. Cancelling ctx aborts the walk with
// ctx.Err().
func (m *Miner) ForEach(ctx context.Context, visit func(worker int, emb []uint32) error) error {
	if tr := m.translator(); tr != nil {
		inner := visit
		visit = func(w int, emb []uint32) error { return inner(w, tr(w, emb)) }
	}
	return m.e.ForEach(ctxOrBackground(ctx), visit)
}

// AggregatePatterns classifies every current embedding with the configured
// isomorphism backend (Config.Iso) and returns the classes with their
// embedding counts — the ResultAggregator of Listing 1 with the default
// mapper. A vertex-induced Miner aggregates the labeled induced patterns of
// its embeddings, an edge-induced Miner the patterns made of exactly their
// edges. Cancelling ctx aborts the aggregation with ctx.Err().
func (m *Miner) AggregatePatterns(ctx context.Context) ([]PatternCount, error) {
	res, err := apps.AggregatePatterns(ctxOrBackground(ctx), m.g.g, m.e, modeOf(m.mode), m.env)
	if err != nil {
		return nil, err
	}
	return publicCounts(res), nil
}

// Close releases the Miner's resources, removing any spilled levels. The
// first Close reports the run: it fills the Config.Stats the Miner was
// created with, and a Miner vended by an Engine stops counting as an active
// run and folds its spill accounting into Engine.Stats.
func (m *Miner) Close() error {
	err := m.e.Close() // hands the explorer's accounting to env.Spill
	m.once.Do(func() {
		s := statsOf(m.env)
		if m.stats != nil {
			*m.stats = s
		}
		if m.en != nil {
			m.en.endRun(s, nil)
		}
	})
	return err
}
