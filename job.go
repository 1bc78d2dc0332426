package kaleido

import (
	"context"
	"fmt"

	"kaleido/internal/apps"
	"kaleido/internal/memtrack"
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

// Job describes one mining job — the argument of Engine.Run and the form
// every application method takes on its way to the engine.
type Job struct {
	Graph *Graph
	App   App
	// K is the embedding size of clique/motif/FSM jobs.
	K int
	// Support is the FSM MNI support threshold.
	Support uint64
	// Config tunes the job.
	Config Config
}

// Result is the output of a job.
type Result struct {
	// Count is the scalar result: triangles or K-cliques counted; for
	// motifs the total embeddings aggregated; for FSM the number of
	// final-level embeddings the fused aggregation visited.
	Count uint64
	// Patterns holds the aggregates of motif and FSM jobs, sorted by
	// descending count, then by encoding.
	Patterns []PatternCount
	// Stats is the accounting of the run, Levels included.
	Stats Stats
}

// Run executes job as one run charging the engine's shared budget — the
// same run the application methods make. Cancelling ctx cancels it.
func (en *Engine) Run(ctx context.Context, job Job) (*Result, error) {
	return runJob(ctx, en, job)
}

// runJob is the one run path: the Graph and Engine application methods and
// Engine.Run all describe their run as a Job and end up here, as one run
// over one run.Env. en is the engine whose shared budget and lifecycle
// accounting the run joins, nil for a standalone run.
func runJob(ctx context.Context, en *Engine, job Job) (_ *Result, err error) {
	if job.Graph == nil {
		return nil, fmt.Errorf("kaleido: job without a graph")
	}
	g, cfg := job.Graph.g, job.Config

	// A standalone run keeps a private tracker: as the child of an arbiter
	// every Alloc would pay the parent's atomics too. The runs of one engine
	// charge its arbiter, so the spill watermark fires on their combined
	// bytes.
	tracker := memtrack.New
	if en != nil {
		cfg, tracker = en.config(cfg), en.arbiter().NewTracker
	}
	env, err := cfg.env(tracker())
	if err != nil {
		return nil, err
	}

	res := &Result{}
	if en != nil {
		en.beginRun()
		defer func() { en.endRun(res.Stats, err) }()
	}
	// The accounting is reported whether or not the run succeeds: a failed
	// run's retries and spilled bytes are what explains the failure.
	defer func() {
		res.Stats = statsOf(env)
		if cfg.Stats != nil {
			*cfg.Stats = res.Stats
		}
	}()

	ctx = ctxOrBackground(ctx)
	var pats []apps.PatternCount
	switch job.App {
	case AppTriangles:
		res.Count, err = apps.TriangleCount(ctx, g, env)
	case AppCliques:
		res.Count, err = apps.CliqueCount(ctx, g, job.K, env)
	case AppMotifs:
		pats, err = apps.MotifCount(ctx, g, job.K, env)
		for _, pc := range pats {
			res.Count += pc.Count
		}
		res.Patterns = publicCounts(pats)
	case AppFSM:
		pats, res.Count, err = apps.FSM(ctx, g, job.K, job.Support, env)
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
