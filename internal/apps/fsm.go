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
// (Fig. 11). ctx cancels the run between blocks of work.
func FSM(ctx context.Context, g *graph.Graph, k int, support uint64, env *run.Env) ([]PatternCount, error) {
	res, _, err := fsmRun(ctx, g, k, support, env)
	return res, err
}

// fsmRun is FSM returning also the number of final-level embeddings the
// fused aggregation visited (the CountVisitSink total) — the Count a sharded
// Result reports.
func fsmRun(ctx context.Context, g *graph.Graph, k int, support uint64, env *run.Env) ([]PatternCount, uint64, error) {
	if err := fsmValidate(k, support); err != nil {
		return nil, 0, err
	}

	// Init (§5.1): MNI support of every single-edge pattern; infrequent
	// edges are eliminated before exploration starts.
	freqPairs, edgeCounts := frequentEdgePatterns(g, support)
	if k == 2 {
		out := edgeCounts
		sortCounts(out)
		return out, uint64(g.M()), nil
	}

	e, err := explore.New(explore.Config{Graph: g, Mode: explore.EdgeInduced, Env: env})
	if err != nil {
		return nil, 0, err
	}
	defer e.Close()
	if err := e.InitEdges(fsmSeedFilter(g, freqPairs)); err != nil {
		return nil, 0, err
	}

	filter := fsmEmbeddingFilter(g, k, freqPairs)
	a := newAggregator(g, support, env)

	var result []PatternCount
	var total uint64
	for level := 2; level <= k-1; level++ {
		if err := ctx.Err(); err != nil {
			return nil, 0, err
		}
		if level < k-1 {
			if err := e.Expand(ctx, nil, filter); err != nil {
				return nil, 0, err
			}
			merged, err := aggregateFSM(ctx, a, e)
			if err != nil {
				return nil, 0, err
			}
			if err := fsmFilterTop(ctx, a, e, merged); err != nil {
				return nil, 0, err
			}
			continue
		}
		// Final level: the largest level of the run is aggregated at the
		// expansion frontier and never materialized — the §6.5
		// terminal-consumption trick applied to FSM.
		merged, n, err := aggregateFSMFused(ctx, a, e, filter)
		if err != nil {
			return nil, 0, err
		}
		total = n
		result = collectFrequent(result, merged, support)
	}
	sortCounts(result)
	return result, total, nil
}

func fsmValidate(k int, support uint64) error {
	if k < 2 || k > pattern.MaxK {
		return fmt.Errorf("apps: FSM size %d out of [2,%d]", k, pattern.MaxK)
	}
	if support == 0 {
		return fmt.Errorf("apps: FSM support must be positive")
	}
	return nil
}

// fsmSeedFilter admits only edges whose 1-edge pattern is frequent.
func fsmSeedFilter(g *graph.Graph, freqPairs map[uint32]bool) func(eid uint32) bool {
	return func(eid uint32) bool {
		ed := g.EdgeAt(eid)
		return freqPairs[pairKey(g.Label(ed.U), g.Label(ed.V))]
	}
}

// fsmEmbeddingFilter is FSM's EmbeddingFilter: the candidate edge must
// itself be frequent and the embedding must not exceed k distinct vertices.
func fsmEmbeddingFilter(g *graph.Graph, k int, freqPairs map[uint32]bool) explore.EdgeFilter {
	return func(_ int, emb []uint32, verts []uint32, cand uint32) bool {
		ed := g.EdgeAt(cand)
		if !freqPairs[pairKey(g.Label(ed.U), g.Label(ed.V))] {
			return false
		}
		nv := 0
		if !sortedContains(verts, ed.U) {
			nv++
		}
		if !sortedContains(verts, ed.V) {
			nv++
		}
		return len(verts)+nv <= k
	}
}

// fsmFilterTop is the Reducer pruning pass: drop embeddings of infrequent
// patterns, rewriting the top level in place (keep sink) so resident data is
// compacted where it sits instead of being copied through a fresh builder.
// When the merged map shows every pattern frequent, nothing would be pruned
// and the whole hash pass over the level is skipped. a is the aggregator of
// the level's aggregation pass: its memos already hold the level's patterns.
func fsmFilterTop(ctx context.Context, a *aggregator, e *explore.Explorer, merged map[uint64]*mni.Agg) error {
	if allFrequent(merged) {
		return nil
	}
	return e.FilterTop(ctx, func(w int, emb []uint32) bool {
		h, err := a.hashEdges(w, emb)
		if err != nil {
			return false
		}
		agg, ok := merged[h]
		return ok && agg.Frequent()
	})
}

// allFrequent reports whether every aggregated pattern reached the support
// threshold — then a pruning pass would keep every embedding.
func allFrequent(m map[uint64]*mni.Agg) bool {
	for _, agg := range m {
		if !agg.Frequent() {
			return false
		}
	}
	return true
}

// collectFrequent appends the frequent patterns of a merged map as results.
// The reported support is saturated at the query threshold: following the
// paper (§6.2) domains are released the moment a pattern crosses the
// threshold, so the exact support is never computed and the raw crossing
// value would vary with worker and shard merge order.
func collectFrequent(result []PatternCount, merged map[uint64]*mni.Agg, support uint64) []PatternCount {
	for _, agg := range merged {
		if !agg.Frequent() {
			continue
		}
		s := agg.Support()
		if s > support {
			s = support
		}
		result = append(result, PatternCount{
			Pattern: agg.Pat,
			Count:   agg.Count,
			Support: s,
		})
	}
	return result
}

// pairKey packs an unordered label pair.
func pairKey(a, b graph.Label) uint32 {
	if a > b {
		a, b = b, a
	}
	return uint32(a)<<16 | uint32(b)
}

// frequentEdgePatterns computes the MNI support of every 1-edge pattern.
// For label pairs (a, a) the two pattern positions are automorphic, so both
// share one domain; for (a, b) the domains are per label — both exact.
func frequentEdgePatterns(g *graph.Graph, support uint64) (map[uint32]bool, []PatternCount) {
	type dom struct {
		a, b map[uint32]struct{}
		n    uint64
	}
	doms := map[uint32]*dom{}
	for _, ed := range g.Edges() {
		la, lb := g.Label(ed.U), g.Label(ed.V)
		key := pairKey(la, lb)
		d, ok := doms[key]
		if !ok {
			d = &dom{a: map[uint32]struct{}{}, b: map[uint32]struct{}{}}
			doms[key] = d
		}
		d.n++
		if la == lb {
			d.a[ed.U] = struct{}{}
			d.a[ed.V] = struct{}{}
		} else {
			// Domain a holds the smaller label's endpoint.
			u, v := ed.U, ed.V
			if la > lb {
				u, v = v, u
			}
			d.a[u] = struct{}{}
			d.b[v] = struct{}{}
		}
	}
	freq := map[uint32]bool{}
	var counts []PatternCount
	for key, d := range doms {
		mni := uint64(len(d.a))
		if len(d.b) > 0 && uint64(len(d.b)) < mni {
			mni = uint64(len(d.b))
		}
		if mni >= support {
			freq[key] = true
			la := graph.Label(key >> 16)
			lb := graph.Label(key & 0xffff)
			p, _ := pattern.New(2)
			p.Labels[0], p.Labels[1] = la, lb
			p.SetEdge(0, 1)
			counts = append(counts, PatternCount{Pattern: p, Count: d.n, Support: mni})
		}
	}
	return freq, counts
}

// aggregateFSM runs the Mapper over all top-level embeddings with a's
// per-worker PatternMaps, then Reduces them into one map keyed by
// isomorphism hash.
func aggregateFSM(ctx context.Context, a *aggregator, e *explore.Explorer) (map[uint64]*mni.Agg, error) {
	if err := e.ForEach(ctx, a.addEdges); err != nil {
		return nil, err
	}
	return a.merge(), nil
}

// aggregateFSMFused is aggregateFSM fused into the expansion itself: the
// final level's embeddings are handed to the Mapper as they are produced and
// never stored, so FSM's largest level writes zero bytes. The sink is the
// combined Count+Visit sink, so the total embedding count of the final level
// comes out of the same pass instead of a second walk over the aggregates.
func aggregateFSMFused(ctx context.Context, a *aggregator, e *explore.Explorer, filter explore.EdgeFilter) (map[uint64]*mni.Agg, uint64, error) {
	total, err := e.ExpandCountVisit(ctx, nil, filter, a.addEdgeExtension)
	if err != nil {
		return nil, 0, err
	}
	return a.merge(), total, nil
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
