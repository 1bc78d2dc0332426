package apps

// Prefix-range sharded execution: the level-1 unit range is split into
// contiguous id ranges (graph.DegreeMassVertexRanges /
// DegreeMassEdgeRanges balance them by degree mass) and each shard runs the
// application over its own explorer, seeded with its run.Env's Seeds. Every
// canonical embedding is rooted at exactly one level-1 unit, so disjoint
// seed ranges covering the id space partition the embedding space exactly:
// shard results merge by plain summation (triangles, cliques), by
// isomorphism-hash merge (motifs), or — for FSM, whose level-synchronous
// pruning needs global supports — by a per-level barrier that merges every
// shard's MNI aggregates before any shard prunes.
//
// Each shard is an independent run charging its own Tracker; callers hand
// every shard a child of one memtrack.Arbiter so the shards respect one
// combined memory budget (the Engine's multi-run discipline applied within
// a single job).

import (
	"context"
	"errors"
	"sync"

	"kaleido/internal/explore"
	"kaleido/internal/graph"
	"kaleido/internal/mni"
	"kaleido/internal/run"
)

// runShards runs f(i) for every shard concurrently and waits for all of
// them. The first failure cancels the sibling shards' context; the error
// returned prefers a root cause over the cancellations it induced.
func runShards(ctx context.Context, n int, f func(ctx context.Context, shard int) error) error {
	if n == 1 {
		return f(ctx, 0)
	}
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := f(cctx, i); err != nil {
				errs[i] = err
				cancel()
			}
		}(i)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	for _, err := range errs {
		if err != nil && !errors.Is(err, context.Canceled) {
			return err
		}
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// TriangleCountSharded runs TriangleCount as len(envs) concurrent shards
// (each envs[i] carrying its Seeds range and Tracker) and sums the counts. One
// shard is simply the unsharded run — so for every *Sharded helper.
func TriangleCountSharded(ctx context.Context, g *graph.Graph, envs []*run.Env) (uint64, error) {
	if len(envs) == 1 {
		return TriangleCount(ctx, g, envs[0])
	}
	counts := make([]uint64, len(envs))
	err := runShards(ctx, len(envs), func(ctx context.Context, i int) error {
		n, err := TriangleCount(ctx, g, envs[i])
		counts[i] = n
		return err
	})
	if err != nil {
		return 0, err
	}
	var total uint64
	for _, n := range counts {
		total += n
	}
	return total, nil
}

// CliqueCountSharded runs CliqueCount as len(envs) concurrent shards and
// sums the counts.
func CliqueCountSharded(ctx context.Context, g *graph.Graph, k int, envs []*run.Env) (uint64, error) {
	if len(envs) == 1 {
		return CliqueCount(ctx, g, k, envs[0])
	}
	counts := make([]uint64, len(envs))
	err := runShards(ctx, len(envs), func(ctx context.Context, i int) error {
		n, err := CliqueCount(ctx, g, k, envs[i])
		counts[i] = n
		return err
	})
	if err != nil {
		return 0, err
	}
	var total uint64
	for _, n := range counts {
		total += n
	}
	return total, nil
}

// MotifCountSharded runs MotifCount as len(envs) concurrent shards and
// merges the per-shard results by isomorphism hash (the char-poly hash is
// invariant under the vertex order, so identical shapes found by different
// shards collide exactly).
func MotifCountSharded(ctx context.Context, g *graph.Graph, k int, envs []*run.Env) ([]PatternCount, error) {
	if len(envs) == 1 {
		return MotifCount(ctx, g, k, envs[0])
	}
	results := make([][]PatternCount, len(envs))
	err := runShards(ctx, len(envs), func(ctx context.Context, i int) error {
		res, err := MotifCount(ctx, g, k, envs[i])
		results[i] = res
		return err
	})
	if err != nil {
		return nil, err
	}
	return MergePatternCounts(results, envs[0].Iso), nil
}

// MergePatternCounts merges per-shard pattern tallies: counts of isomorphic
// patterns (same hash under the configured backend) sum, and the class keeps
// the smallest-encoding representative any shard found — the one an
// unsharded run reports. Supports do NOT merge here — FSM's MNI supports
// need domain unions, which FSMSharded does level-synchronously — so this
// helper is for count-only aggregates (motifs). The result is sorted like a
// single-run output.
func MergePatternCounts(lists [][]PatternCount, iso run.IsoAlgo) []PatternCount {
	hash := newHasher(iso)
	merged := map[uint64]*PatternCount{}
	for _, list := range lists {
		for _, pc := range list {
			key := hash(pc.Pattern) // representatives are (label, degree)-sorted
			prev, ok := merged[key]
			if !ok {
				cp := pc
				merged[key] = &cp
				continue
			}
			prev.Count += pc.Count
			if pc.Pattern.Encode() < prev.Pattern.Encode() {
				prev.Pattern = pc.Pattern
			}
		}
	}
	out := make([]PatternCount, 0, len(merged))
	for _, pc := range merged {
		out = append(out, *pc)
	}
	sortCounts(out)
	return out
}

// FSMSharded mines frequent subgraphs over len(envs) concurrent shards of
// the edge id range. Unlike the counting apps the shards cannot run to
// completion independently: MNI support is a global property, so each
// level's pruning must see every shard's aggregates. The loop is therefore
// level-synchronous across shards — all shards expand and aggregate, the
// per-shard MNI maps merge into one global map at the barrier (domain
// unions are exact until threshold saturation, so the two-stage merge
// equals a single-run merge), and every shard prunes its own top level
// against the global map. Returns the frequent patterns and the total
// number of final-level embeddings aggregated.
func FSMSharded(ctx context.Context, g *graph.Graph, k int, support uint64, envs []*run.Env) ([]PatternCount, uint64, error) {
	if len(envs) == 1 {
		return fsmRun(ctx, g, k, support, envs[0])
	}
	if err := fsmValidate(k, support); err != nil {
		return nil, 0, err
	}
	freqPairs, edgeCounts := frequentEdgePatterns(g, support)
	if k == 2 {
		sortCounts(edgeCounts)
		return edgeCounts, uint64(g.M()), nil
	}

	S := len(envs)
	shards := make([]*shardFSM, S)
	defer func() {
		for _, sh := range shards {
			if sh != nil {
				sh.e.Close()
			}
		}
	}()
	for i := range shards {
		sh, err := newShardFSM(g, freqPairs, support, envs[i])
		if err != nil {
			return nil, 0, err
		}
		shards[i] = sh
	}
	filter := fsmEmbeddingFilter(g, k, freqPairs)

	var result []PatternCount
	var totalMu sync.Mutex
	var total uint64
	for level := 2; level <= k-1; level++ {
		if err := ctx.Err(); err != nil {
			return nil, 0, err
		}
		maps := make([]map[uint64]*mni.Agg, S)
		if level < k-1 {
			err := runShards(ctx, S, func(ctx context.Context, i int) error {
				if err := shards[i].e.Expand(ctx, nil, filter); err != nil {
					return err
				}
				m, err := aggregateFSM(ctx, shards[i].a, shards[i].e)
				maps[i] = m
				return err
			})
			if err != nil {
				return nil, 0, err
			}
			// Barrier: global supports before any shard prunes.
			global := mni.MergeMaps(maps, support)
			err = runShards(ctx, S, func(ctx context.Context, i int) error {
				return fsmFilterTop(ctx, shards[i].a, shards[i].e, global)
			})
			if err != nil {
				return nil, 0, err
			}
			continue
		}
		err := runShards(ctx, S, func(ctx context.Context, i int) error {
			m, n, err := aggregateFSMFused(ctx, shards[i].a, shards[i].e, filter)
			maps[i] = m
			totalMu.Lock()
			total += n
			totalMu.Unlock()
			return err
		})
		if err != nil {
			return nil, 0, err
		}
		result = collectFrequent(result, mni.MergeMaps(maps, support), support)
	}
	sortCounts(result)
	return result, total, nil
}

// shardFSM is one shard's long-lived exploration state (FSM's shards live
// across the level loop, unlike the counting apps' one-shot runs).
type shardFSM struct {
	e *explore.Explorer
	a *aggregator
}

func newShardFSM(g *graph.Graph, freqPairs map[uint32]bool, support uint64, env *run.Env) (*shardFSM, error) {
	e, err := explore.New(explore.Config{Graph: g, Mode: explore.EdgeInduced, Env: env})
	if err != nil {
		return nil, err
	}
	if err := e.InitEdges(fsmSeedFilter(g, freqPairs)); err != nil {
		e.Close()
		return nil, err
	}
	return &shardFSM{e: e, a: newAggregator(g, support, env)}, nil
}
