package apps

import (
	"context"
	"fmt"

	"kaleido/internal/explore"
	"kaleido/internal/graph"
	"kaleido/internal/mni"
	"kaleido/internal/pattern"
	"kaleido/internal/run"
)

// FSM mines frequent subgraphs with the minimum image-based (MNI) support
// metric (§5.1): k-FSM returns frequent patterns with k−1 edges and at most
// k vertices, exploring edge-induced embeddings and pruning infrequent
// patterns level-synchronously. Following the paper's implementation (§6.2),
// the exact MNI support is not computed: as soon as a pattern's support
// reaches the threshold it is marked frequent and its domain tracking is
// dropped, which is why FSM run time is non-monotonic in the support
// (Fig. 11). Besides the frequent patterns FSM returns the number of
// final-level embeddings its fused aggregation visited. ctx cancels the run
// between blocks of work.
func FSM(ctx context.Context, g *graph.Graph, k int, support uint64, env *run.Env) ([]PatternCount, uint64, error) {
	if k < 2 || k > pattern.MaxK {
		return nil, 0, fmt.Errorf("apps: FSM size %d out of [2,%d]", k, pattern.MaxK)
	}
	if support == 0 {
		return nil, 0, fmt.Errorf("apps: FSM support must be positive")
	}

	// Init (§5.1): MNI support of every single-edge pattern; infrequent
	// edges are eliminated before exploration starts.
	freqPairs, pairs := mni.EdgePairs(g, support)
	if k == 2 {
		return edgePairCounts(pairs), uint64(g.M()), nil
	}

	e, err := explore.New(explore.Config{Graph: g, Mode: explore.EdgeInduced, Env: env})
	if err != nil {
		return nil, 0, err
	}
	defer e.Close()
	if err := e.InitEdges(freqPairs.Has); err != nil {
		return nil, 0, err
	}

	filter := fsmEmbeddingFilter(g, k, freqPairs)
	a := newAggregator(g, support, env)

	for level := 2; level < k-1; level++ {
		if err := ctx.Err(); err != nil {
			return nil, 0, err
		}
		// Run the Mapper over the level at the expansion frontier, as the
		// final pass does, Reduce the per-worker PatternMaps into one map
		// keyed by isomorphism hash, then store the level pruned against
		// it: a child of an infrequent pattern is never written.
		if _, err := e.ExpandCountVisit(ctx, nil, filter, a.addEdgeGroup); err != nil {
			return nil, 0, err
		}
		if err := e.Expand(ctx, nil, a.frequentOnly(filter, a.merge())); err != nil {
			return nil, 0, err
		}
		if err := a.err(); err != nil {
			return nil, 0, err
		}
	}
	// Final level: the largest level of the run is aggregated at the
	// expansion frontier and never materialized — the §6.5
	// terminal-consumption trick applied to FSM. The combined Count+Visit
	// sink counts the level's embeddings in the same pass, and hands the
	// Mapper each parent with all its extensions, so the parent's pattern
	// is filled once.
	total, err := e.ExpandCountVisit(ctx, nil, filter, a.addEdgeGroup)
	if err != nil {
		return nil, 0, err
	}
	return collectFrequent(a.merge(), support), total, nil
}

// fsmEmbeddingFilter is FSM's EmbeddingFilter: the candidate edge must
// itself be frequent and the embedding must not exceed k distinct vertices.
// A candidate is incident to the embedding and adds at most one vertex, so
// only an embedding that already spans k vertices looks its endpoints up.
func fsmEmbeddingFilter(g *graph.Graph, k int, freqPairs mni.EdgeSet) explore.EdgeFilter {
	return func(_ int, _, verts []uint32, cand uint32) bool {
		if !freqPairs.Has(cand) {
			return false
		}
		if len(verts) < k {
			return true
		}
		ed := g.EdgeAt(cand)
		return sortedContains(verts, ed.U) && sortedContains(verts, ed.V)
	}
}

// collectFrequent returns the frequent patterns of a merged map as sorted
// results. The reported support is saturated at the query threshold:
// following the paper (§6.2) domains are released the moment a pattern
// crosses the threshold, so the exact support is never computed and the raw
// crossing value would vary with the worker merge order.
func collectFrequent(merged map[uint64]*mni.Agg, support uint64) []PatternCount {
	var result []PatternCount
	for _, agg := range merged {
		if !agg.Frequent() {
			continue
		}
		result = append(result, PatternCount{
			Pattern: agg.Pat,
			Count:   agg.Count,
			Support: min(agg.Support(), support),
		})
	}
	sortCounts(result)
	return result
}

// edgePairCounts turns the frequent single-edge patterns into sorted results.
func edgePairCounts(pairs []mni.Pair) []PatternCount {
	out := make([]PatternCount, len(pairs))
	for i, pr := range pairs {
		out[i] = PatternCount{Pattern: pr.Pattern(), Count: pr.Count, Support: pr.Support}
	}
	sortCounts(out)
	return out
}

// sortedContains reports membership in a sorted slice.
func sortedContains(s []uint32, v uint32) bool {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := (lo + hi) / 2
		if s[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(s) && s[lo] == v
}
