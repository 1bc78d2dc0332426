package kaleido

import (
	"context"
	"sync"
	"sync/atomic"

	"kaleido/internal/memtrack"
)

// Engine multiplexes concurrent mining runs over one machine's resources.
// Every run it vends — application runs (Triangles, Cliques, Motifs, FSM)
// and custom Miners alike — charges the same resident-bytes pool, so N
// co-located runs together respect one MemoryBudget: the §4.1 spill
// watermark fires on their combined total, not on each run's private share.
// Without an Engine, two concurrent runs each believe they own the whole
// budget and can together blow it; with one, the runs arbitrate — a run that
// starts while its siblings hold most of the pool builds its levels mostly
// on disk, and its later levels get the memory back as the siblings release
// theirs.
//
// The zero value is usable: populate the fields and share the Engine by
// pointer. All methods are safe for concurrent use; runs may share a
// SpillDir (each run spills into a private subdirectory).
type Engine struct {
	// MemoryBudget caps the combined resident bytes of the intermediate
	// data of every run vended by this engine. 0 keeps everything in
	// memory.
	MemoryBudget int64
	// SpillDir receives spilled CSE level parts. Required when
	// MemoryBudget > 0.
	SpillDir string
	// Threads is the default per-run worker count (0 = GOMAXPROCS); a
	// run's Config.Threads overrides it.
	Threads int
	// QueueLimit bounds the admission queue of Admit (0 = the default 64):
	// past it new requests fail fast with ErrQueueFull instead of queueing.
	QueueLimit int
	// AdmitWatermark is the fraction of MemoryBudget that admitted work —
	// live bytes plus outstanding reservations plus a new run's projected
	// bytes — may plan to fill (0 = the default 0.8). Keeping it under the
	// spill watermark (0.9) means an admitted run starts into real headroom.
	AdmitWatermark float64

	once sync.Once
	arb  *memtrack.Arbiter

	// Admission queue state (admission.go).
	admitMu  sync.Mutex
	waiters  []*admitWaiter
	admitSeq uint64

	// Cumulative run accounting behind Stats(). The byte-level counters
	// (live/peak/reserved, I/O, spilled bytes, retries) live on the arbiter;
	// these cover what the arbiter does not see: run lifecycles and the
	// part-transition counts each run reports in its Stats.
	activeRuns    atomic.Int64
	completedRuns atomic.Int64
	failedRuns    atomic.Int64
	spilledLevels atomic.Int64
	spilledParts  atomic.Int64
}

// EngineStats is one race-clean snapshot of an Engine's aggregate state: the
// shared pool, the run lifecycle counts, and the cumulative spill and
// retry counters of every run the engine has vended. Metrics endpoints and
// benchmarks read this one view instead of poking fields mid-run.
type EngineStats struct {
	// MemoryBudget echoes the engine's shared budget (0 = unbudgeted).
	MemoryBudget int64
	// LiveBytes and PeakBytes are the combined resident bytes of all vended
	// runs, current and high-watermark. ReservedBytes is the headroom held
	// by granted admissions whose runs have not yet allocated it.
	LiveBytes, PeakBytes, ReservedBytes int64
	// ActiveRuns counts runs currently executing (including live Miners);
	// QueuedRuns counts Admit requests waiting for headroom.
	ActiveRuns, QueuedRuns int
	// CompletedRuns and FailedRuns count finished runs by outcome
	// (cancellation counts as failed — the run did not produce a result).
	CompletedRuns, FailedRuns int64
	// Cumulative part-residency transitions across all runs: levels that
	// spilled at least one part, and parts migrated to disk.
	SpilledLevels, SpilledParts int64
	// SpilledBytes is the cumulative logical size of the spilled parts,
	// SpilledBytesPhysical what they occupied on disk.
	SpilledBytes, SpilledBytesPhysical int64
	// ReadBytes and WriteBytes are cumulative hybrid-storage I/O.
	ReadBytes, WriteBytes int64
	// IORetries counts transient spill I/O errors absorbed by the retry
	// policy across all runs.
	IORetries int64
}

// Stats returns an aggregate snapshot of the engine: pool bytes, run
// lifecycle counts, and cumulative spill accounting. Safe to call
// concurrently with running jobs; counters from runs still in flight appear
// when those runs finish (Miners: when they Close).
func (en *Engine) Stats() EngineStats {
	arb := en.arbiter()
	sl, sp := arb.SpillTotals()
	r, w := arb.IOTotals()
	en.admitMu.Lock()
	queued := len(en.waiters)
	en.admitMu.Unlock()
	return EngineStats{
		MemoryBudget:         en.MemoryBudget,
		LiveBytes:            arb.Live(),
		PeakBytes:            arb.Peak(),
		ReservedBytes:        arb.Reserved(),
		ActiveRuns:           int(en.activeRuns.Load()),
		QueuedRuns:           queued,
		CompletedRuns:        en.completedRuns.Load(),
		FailedRuns:           en.failedRuns.Load(),
		SpilledLevels:        en.spilledLevels.Load(),
		SpilledParts:         en.spilledParts.Load(),
		SpilledBytes:         sl,
		SpilledBytesPhysical: sp,
		ReadBytes:            r,
		WriteBytes:           w,
		IORetries:            arb.IORetries(),
	}
}

// beginRun/endRun bracket every run the engine vends. endRun folds the run's
// part-transition counts into the cumulative totals and wakes the admission
// queue — a finished run is the main headroom-freeing event.
func (en *Engine) beginRun() { en.activeRuns.Add(1) }

func (en *Engine) endRun(s Stats, err error) {
	en.activeRuns.Add(-1)
	if err != nil {
		en.failedRuns.Add(1)
	} else {
		en.completedRuns.Add(1)
	}
	en.spilledLevels.Add(int64(s.SpilledLevels))
	en.spilledParts.Add(int64(s.SpilledParts))
	en.kickAdmission()
}

// arbiter lazily creates the shared budget arbiter, so a literal
// Engine{...} works without a constructor.
func (en *Engine) arbiter() *memtrack.Arbiter {
	en.once.Do(func() { en.arb = memtrack.NewArbiter(en.MemoryBudget) })
	return en.arb
}

// config merges the engine's shared knobs into a per-run Config — the only
// Engine → Config merge: budget and spill placement always come from the
// engine (they are engine-wide properties), threads only when the run doesn't
// choose its own.
func (en *Engine) config(cfg Config) Config {
	cfg.MemoryBudget = en.MemoryBudget
	cfg.SpillDir = en.SpillDir
	if cfg.Threads == 0 {
		cfg.Threads = en.Threads
	}
	return cfg
}

// ResidentBytes reports the combined live tracked bytes of every run the
// engine has vended — the quantity the shared budget caps.
func (en *Engine) ResidentBytes() int64 { return en.arbiter().Live() }

// PeakBytes reports the high watermark of the combined resident bytes.
func (en *Engine) PeakBytes() int64 { return en.arbiter().Peak() }

// NewMiner creates a Miner whose intermediate data charges the engine's
// shared budget pool. Close the Miner to release its share (and any spilled
// files); the Miner counts as an active run until then.
func (en *Engine) NewMiner(ctx context.Context, g *Graph, mode Mode, cfg Config) (*Miner, error) {
	env, err := en.config(cfg).env(en.arbiter().NewTracker())
	if err != nil {
		return nil, err
	}
	en.beginRun()
	m, err := newMiner(ctx, g, mode, env, cfg.Stats)
	if err != nil {
		en.endRun(Stats{}, err)
		return nil, err
	}
	m.en = en
	return m, nil
}

// Triangles is Graph.Triangles charged against the engine's shared budget.
func (en *Engine) Triangles(ctx context.Context, g *Graph, cfg Config) (uint64, error) {
	return countOf(runJob(ctx, en, Job{Graph: g, App: AppTriangles, Config: cfg}))
}

// Cliques is Graph.Cliques charged against the engine's shared budget.
func (en *Engine) Cliques(ctx context.Context, g *Graph, k int, cfg Config) (uint64, error) {
	return countOf(runJob(ctx, en, Job{Graph: g, App: AppCliques, K: k, Config: cfg}))
}

// Motifs is Graph.Motifs charged against the engine's shared budget.
func (en *Engine) Motifs(ctx context.Context, g *Graph, k int, cfg Config) ([]PatternCount, error) {
	return patternsOf(runJob(ctx, en, Job{Graph: g, App: AppMotifs, K: k, Config: cfg}))
}

// FSM is Graph.FSM charged against the engine's shared budget.
func (en *Engine) FSM(ctx context.Context, g *Graph, k int, support uint64, cfg Config) ([]PatternCount, error) {
	return patternsOf(runJob(ctx, en, Job{Graph: g, App: AppFSM, K: k, Support: support, Config: cfg}))
}
