// Package apps implements the four mining applications of §5.1 on top of the
// exploration engine: frequent subgraph mining (edge-induced, MNI support),
// motif counting, clique discovery, and triangle counting. Each follows the
// paper's two-phase shape — embedding exploration, then pattern aggregation
// with per-worker PatternMaps merged by a Reducer — but the terminal phase
// is fused into the exploration through the engine's expansion sinks: the
// final (largest) level of a run is consumed where it is produced instead
// of being stored. CliqueCount counts its last two levels with a CountSink,
// FSM's aggregation rides a VisitSink at every level, MotifCount's Mapper a
// RowSink — so every application writes zero bytes for its terminal level,
// on any storage regime — and FSM prunes each intermediate level as it
// stores it: a child of an infrequent pattern is never written.
//
// CliqueCount and TriangleCount (= CliqueCount(3)) run the explorer's
// Clique mode, which reads common neighbours instead of filtering a union:
// the group stored under a clique is its common neighbours, so each worker
// stamps a group's leaves with their positions as it walks them and probes
// every leaf's below-neighbour list (graph.Below) against the leaves before
// it. The probe also gives each leaf a bit row over its group — its
// children — and a child's children are its row ANDed with the leaf's: a
// k-clique run stores k−2 levels (a triangle run the base level alone), one
// fewer than §6.5's k−1, and counts levels k−1 and k in one walk over level
// k−2.
// MotifCount does not ask the graph about adjacency at all: the explorer
// hands its Mapper every parent's own adjacency masks and its children
// counted by mask (the candidate merge carries each candidate's adjacency
// to its embedding as a bit mask), so the Mapper adds each parent's rows
// under its word and classifies each distinct (word, row) once, at the
// Reduce. It stores k−2 levels, a deliberate departure from §6.5's k−1:
// the row walk lists each stored leaf's children once — they are the keep
// list of the prefix ending in the leaf — and counts their extensions
// against that list, so level k−1 is neither stored nor walked and
// re-filtered run by run, the largest cost the row count had left.
//
// An application run is configured by one *run.Env — threads, budget, spill
// placement, tracker, isomorphism backend, accounting out-pointer — which
// each application hands unchanged to its explorer; nothing here copies or
// re-declares a run knob. A run is parallel inside itself only: its workers
// split every level (§4.2) and pull chunks dynamically, and the per-worker
// PatternMaps meet in one Reducer. There is no seed-range sharding of a run.
package apps

import (
	"context"
	"fmt"
	"sort"

	"kaleido/internal/explore"
	"kaleido/internal/graph"
	"kaleido/internal/pattern"
	"kaleido/internal/run"
)

// PatternCount is one aggregated pattern: a representative (normalized)
// pattern, its embedding count, and — for FSM — its MNI support.
type PatternCount struct {
	Pattern *pattern.Pattern
	Count   uint64
	Support uint64
}

// sortCounts orders results descending by count then by encoding, making
// outputs deterministic across thread counts.
func sortCounts(out []PatternCount) {
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Pattern.Encode() < out[j].Pattern.Encode()
	})
}

// TriangleCount counts triangles (§5.1): a triangle is a 3-clique, so this
// is CliqueCount(3) — only the base level is stored, and one walk over it
// takes, per vertex v, the vertices u of Below(v) in ascending order, adds
// how many of those already stamped lie in Below(u), then stamps u.
// ctx cancels the run between blocks of work.
func TriangleCount(ctx context.Context, g *graph.Graph, env *run.Env) (uint64, error) {
	return CliqueCount(ctx, g, 3, env)
}

// CliqueCount counts k-cliques (§5.1) by Clique exploration: a clique's
// extensions are the common neighbours of its vertices, so every embedding
// the explorer produces is a clique and no filter or pattern computation is
// needed. Only k−2 levels are materialized (at least the base level): the
// last two — the largest of the run — are counted in one walk over level
// k−2 (ExpandCountTwo), so zero bytes are written for them and level k−1
// is never walked. A 2-clique is an edge: its count is the depth-1
// expansion's. ctx cancels the run between blocks of work.
func CliqueCount(ctx context.Context, g *graph.Graph, k int, env *run.Env) (uint64, error) {
	if k < 2 {
		return 0, fmt.Errorf("apps: clique size %d < 2", k)
	}
	e, err := explore.New(explore.Config{Graph: g, Mode: explore.Clique, Env: env})
	if err != nil {
		return 0, err
	}
	defer e.Close()
	if err := e.InitVertices(nil); err != nil {
		return 0, err
	}
	if k == 2 {
		return e.ExpandCount(ctx, nil, nil)
	}
	for i := 1; i < k-2; i++ {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		if err := e.Expand(ctx, nil, nil); err != nil {
			return 0, err
		}
	}
	return e.ExpandCountTwo(ctx)
}

// MotifCount counts the frequency of every k-motif (§5.1). Exploration
// stores k−2 levels, one fewer than §6.5's k−1: for each stored leaf the
// explorer lists its canonical children once — which are exactly the keep
// list of the prefix ending in the leaf — and counts each child's
// extensions by row (adjacency mask) against that list, so level k−1 is
// never written, walked or filtered again. The Mapper tallies those counts
// by (parent adjacency word, child row) and aggregates the pattern class of
// each tallied pair. A 2-motif is an edge: its count is the depth-1
// expansion's. Labels are ignored: motifs are structural. ctx cancels the
// run between blocks of work.
func MotifCount(ctx context.Context, g *graph.Graph, k int, env *run.Env) ([]PatternCount, error) {
	if k < 2 || k > pattern.MaxK {
		return nil, fmt.Errorf("apps: motif size %d out of [2,%d]", k, pattern.MaxK)
	}
	e, err := explore.New(explore.Config{Graph: g, Mode: explore.VertexInduced, Env: env})
	if err != nil {
		return nil, err
	}
	defer e.Close()
	if err := e.InitVertices(nil); err != nil {
		return nil, err
	}
	a := newAggregator(g, 0, env)
	if k == 2 {
		n, err := e.ExpandCount(ctx, nil, nil)
		if err != nil {
			return nil, err
		}
		if n > 0 {
			// The one edge pattern, classified as the Reduce classifies a
			// tallied row (aggregator.flush).
			ws := a.workers[0]
			ws.pat = pattern.Pattern{K: 2}
			ws.pat.SetEdge(0, 1)
			a.class(ws).agg.Count += n
		}
		return a.counts(), nil
	}
	// Store levels 1..k−2; the row walk counts levels k−1 and k at the
	// frontier.
	for i := 1; i < k-2; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := e.Expand(ctx, nil, nil); err != nil {
			return nil, err
		}
	}
	if err := e.ExpandVisitGroups(ctx, a.addMotifs); err != nil {
		return nil, err
	}
	return a.counts(), nil
}
