package bench

import (
	"fmt"
	"sync"
	"time"

	"kaleido/internal/explore"
	"kaleido/internal/gen"
	"kaleido/internal/graph"
	"kaleido/internal/run"
)

// The shards experiment measures prefix-range sharded execution on the
// vertex-d4 micro-benchmark workload (the depth-3→4 expansion of the
// 4000/16000 power-law bench graph): the level-1 vertex range is split into
// degree-mass-balanced contiguous ranges over the relabeled id order, each
// shard is an independent single-threaded sub-run, and the shards execute
// concurrently. Shards are the parallelism axis here — per-shard concurrency
// is fixed at one worker — so the speedup column reads as the scaling of the
// shard fan-out itself (≈k× on a machine with ≥k idle cores, ≈1× on one
// core), with the summed embedding count pinning correctness at every k.

// shardsBenchDepth is the starting depth of the measured expansion; the
// measured step counts depth-4 embeddings at the frontier (CountSink).
const shardsBenchDepth = 3

// shardsGraph builds the degree-order relabeled equivalent of the vertex-d4
// bench graph.
func shardsGraph() (*graph.Graph, error) {
	g, err := gen.PowerLaw(gen.Config{N: 4000, M: 16000, Alpha: 2.6, NumLabels: 8, LabelSkew: 0.7, Seed: 42})
	if err != nil {
		return nil, err
	}
	return graph.Relabel(g)
}

// shardExplorers builds one single-threaded explorer per degree-mass prefix
// range, each expanded to the starting depth.
func shardExplorers(g *graph.Graph, shards int) ([]*explore.Explorer, error) {
	bounds := g.DegreeMassVertexRanges(shards)
	exs := make([]*explore.Explorer, shards)
	fail := func(err error) ([]*explore.Explorer, error) {
		closeExplorers(exs)
		return nil, err
	}
	for i := range exs {
		ex, err := explore.New(explore.Config{Graph: g, Mode: explore.VertexInduced, Env: &run.Env{
			Threads: 1, Seeds: &run.SeedRange{Lo: uint32(bounds[i]), Hi: uint32(bounds[i+1])},
		}})
		if err != nil {
			return fail(err)
		}
		exs[i] = ex
		if err := ex.InitVertices(nil); err != nil {
			return fail(err)
		}
		for ex.Depth() < shardsBenchDepth {
			if err := ex.Expand(bgCtx, nil, nil); err != nil {
				return fail(err)
			}
		}
	}
	return exs, nil
}

func closeExplorers(exs []*explore.Explorer) {
	for _, ex := range exs {
		if ex != nil {
			ex.Close()
		}
	}
}

// shardedExpandCount runs the final expansion of every shard concurrently
// through CountSinks and returns the summed frontier embedding count.
func shardedExpandCount(exs []*explore.Explorer) (uint64, error) {
	var wg sync.WaitGroup
	totals := make([]uint64, len(exs))
	errs := make([]error, len(exs))
	for i, ex := range exs {
		wg.Add(1)
		go func(i int, ex *explore.Explorer) {
			defer wg.Done()
			totals[i], errs[i] = ex.ExpandCount(bgCtx, nil, nil)
		}(i, ex)
	}
	wg.Wait()
	var total uint64
	for i := range exs {
		if errs[i] != nil {
			return 0, errs[i]
		}
		total += totals[i]
	}
	return total, nil
}

// shardMassSkew reports max/min degree mass over the k prefix ranges — the
// balance the first-fit partitioner achieved (weight deg(v)+1 per vertex).
func shardMassSkew(g *graph.Graph, shards int) float64 {
	bounds := g.DegreeMassVertexRanges(shards)
	minM, maxM := int64(-1), int64(0)
	for i := 0; i < shards; i++ {
		var mass int64
		for v := bounds[i]; v < bounds[i+1]; v++ {
			mass += int64(g.Degree(uint32(v)) + 1)
		}
		if mass > maxM {
			maxM = mass
		}
		if minM < 0 || mass < minM {
			minM = mass
		}
	}
	if minM <= 0 {
		return 0
	}
	return float64(maxM) / float64(minM)
}

// shardsExp runs the sharded-execution scaling experiment.
func shardsExp(cfg RunConfig) ([]Result, error) {
	g, err := shardsGraph()
	if err != nil {
		return nil, err
	}
	reps := 3
	if cfg.Quick {
		reps = 1
	}
	res := Result{
		ID:     "shards",
		Title:  "prefix-range sharded execution: vertex-d4 frontier count, 1 worker per shard",
		Header: []string{"Shards", "best t (s)", "speedup", "embeddings", "mass skew"},
	}
	var base float64
	var want uint64
	for _, k := range []int{1, 2, 4} {
		exs, err := shardExplorers(g, k)
		if err != nil {
			return nil, err
		}
		best := 0.0
		var total uint64
		for r := 0; r < reps; r++ {
			start := time.Now()
			total, err = shardedExpandCount(exs)
			if err != nil {
				closeExplorers(exs)
				return nil, err
			}
			if sec := time.Since(start).Seconds(); best == 0 || sec < best {
				best = sec
			}
		}
		closeExplorers(exs)
		if k == 1 {
			base = best
			want = total
		} else if total != want {
			return nil, fmt.Errorf("bench: shards=%d produced %d embeddings, shards=1 produced %d", k, total, want)
		}
		res.Rows = append(res.Rows, []string{
			fmt.Sprintf("%d", k),
			fmt.Sprintf("%.2f", best),
			fmt.Sprintf("%.2fx", base/best),
			fmt.Sprintf("%d", total),
			fmt.Sprintf("%.2f", shardMassSkew(g, k)),
		})
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("min of %d back-to-back runs per shard count; embedding totals must match across shard counts (checked)", reps),
		"shards are the parallelism axis (one worker each): expect ≈k× on ≥k idle cores, ≈1× on a single exposed core",
		"ranges are contiguous prefixes of the degree-ordered relabeled id space, balanced first-fit by degree mass (mass skew = heaviest/lightest shard)")
	return []Result{res}, nil
}
