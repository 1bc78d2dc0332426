package kaleido

import (
	"context"
	"fmt"

	"kaleido/internal/apps"
	"kaleido/internal/memtrack"
	"kaleido/internal/run"
)

// App identifies one of the built-in mining applications.
type App int

const (
	// AppTriangles counts triangles (K and Support unused).
	AppTriangles App = iota
	// AppCliques counts K-cliques.
	AppCliques
	// AppMotifs counts K-vertex motifs.
	AppMotifs
	// AppFSM mines frequent subgraphs with K−1 edges at MNI support Support.
	AppFSM
)

// Job describes one mining job — the argument of Engine.RunSharded and the
// form every application method takes on its way to the engine.
type Job struct {
	Graph *Graph
	App   App
	// K is the embedding size of clique/motif/FSM jobs.
	K int
	// Support is the FSM MNI support threshold.
	Support uint64
	// Config tunes the job. Config.Shards is ignored here — the shard count
	// is the RunSharded argument.
	Config Config
}

// Result is the (merged) output of a job.
type Result struct {
	// Count is the scalar result: triangles or K-cliques counted; for
	// motifs the total embeddings aggregated; for FSM the number of
	// final-level embeddings the fused aggregation visited.
	Count uint64
	// Patterns holds the merged aggregates of motif and FSM jobs, sorted
	// exactly as an unsharded run sorts them.
	Patterns []PatternCount
	// Stats is the accounting of the run, merged over its shards: I/O and
	// spill counters sum; with more than one shard PeakBytes is the combined
	// peak of the budget pool the shards shared and Levels is empty.
	Stats Stats
}

// RunSharded executes job as shards concurrent prefix-range sub-runs, each
// charging the engine's shared budget through its own arbiter tracker, and
// merges counts, pattern aggregates, and stats at the barrier. The level-1
// unit range (vertex ids, or edge ids for FSM) is split into contiguous
// ranges balanced by degree mass — cheap and tight because built graphs are
// degree-order relabeled — and every canonical embedding is rooted at
// exactly one level-1 unit, so the shards partition the embedding space:
// merged results are identical to an unsharded run's. Job threads are
// divided across the shards. Cancelling ctx cancels every shard.
func (en *Engine) RunSharded(ctx context.Context, job Job, shards int) (*Result, error) {
	job.Config.Shards = shards
	return runJob(ctx, en, job)
}

// runJob is the one run path: the Graph and Engine application methods and
// Engine.RunSharded all describe their run as a Job and end up here. en is
// the engine whose shared budget and lifecycle accounting the run joins, nil
// for a standalone run. The job runs as max(Config.Shards, 1) sub-runs, each
// over its own run.Env; an unsharded run is the one-shard case, which the
// apps.*Sharded helpers forward to the plain application.
func runJob(ctx context.Context, en *Engine, job Job) (_ *Result, err error) {
	if job.Graph == nil {
		return nil, fmt.Errorf("kaleido: job without a graph")
	}
	g, cfg := job.Graph.g, job.Config
	shards := max(cfg.Shards, 1)

	// A standalone unsharded run keeps a private tracker: as the child of an
	// arbiter every Alloc would pay the parent's atomics too. Sub-runs that
	// share a budget — the shards of one job, the runs of one engine — charge
	// one arbiter, so the spill watermark fires on their combined bytes.
	newTracker := memtrack.New
	var pool *memtrack.Arbiter
	if en != nil {
		cfg, pool = en.config(cfg), en.arbiter()
	} else if shards > 1 {
		pool = memtrack.NewArbiter(cfg.MemoryBudget)
	}
	if pool != nil {
		newTracker = pool.NewTracker
	}
	envs := make([]*run.Env, shards)
	for i := range envs {
		if envs[i], err = cfg.env(newTracker()); err != nil {
			return nil, err
		}
	}
	if shards > 1 {
		// Seed ranges balanced by degree mass (FSM shards the edge id range),
		// threads divided across the shards. One shard seeds the full range
		// and skips the partitioner.
		bounds := g.DegreeMassVertexRanges(shards)
		if job.App == AppFSM {
			bounds = g.DegreeMassEdgeRanges(shards)
		}
		perShard := max(envs[0].Workers()/shards, 1)
		for i, env := range envs {
			env.Threads = perShard
			env.Seeds = &run.SeedRange{Lo: uint32(bounds[i]), Hi: uint32(bounds[i+1])}
		}
	}

	res := &Result{}
	if en != nil {
		en.beginRun()
		defer func() { en.endRun(res.Stats, err) }()
	}
	// The accounting is reported whether or not the run succeeds: a failed
	// run's retries and spilled bytes are what explains the failure.
	defer func() {
		res.Stats = statsOf(envs...)
		if shards > 1 {
			// The combined peak of the pool the shards shared (for an engine
			// job that pool includes sibling runs).
			res.Stats.PeakBytes = pool.Peak()
		}
		if cfg.Stats != nil {
			*cfg.Stats = res.Stats
		}
	}()

	ctx = ctxOrBackground(ctx)
	var pats []apps.PatternCount
	switch job.App {
	case AppTriangles:
		res.Count, err = apps.TriangleCountSharded(ctx, g, envs)
	case AppCliques:
		res.Count, err = apps.CliqueCountSharded(ctx, g, job.K, envs)
	case AppMotifs:
		pats, err = apps.MotifCountSharded(ctx, g, job.K, envs)
		for _, pc := range pats {
			res.Count += pc.Count
		}
		res.Patterns = publicCounts(pats)
	case AppFSM:
		pats, res.Count, err = apps.FSMSharded(ctx, g, job.K, job.Support, envs)
		res.Patterns = publicCounts(pats)
	default:
		err = fmt.Errorf("kaleido: unknown app %d", job.App)
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

// countOf and patternsOf unwrap a Result for the application methods.
func countOf(res *Result, err error) (uint64, error) {
	if err != nil {
		return 0, err
	}
	return res.Count, nil
}

func patternsOf(res *Result, err error) ([]PatternCount, error) {
	if err != nil {
		return nil, err
	}
	return res.Patterns, nil
}
