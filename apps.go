package kaleido

import (
	"context"

	"kaleido/internal/apps"
	"kaleido/internal/pattern"
)

// Pattern is a small labeled template graph — the shape shared by a class of
// isomorphic embeddings (paper §3.2, Fig. 5).
type Pattern struct {
	// K is the vertex count (1..8).
	K int
	// Labels holds the vertex labels in normalized (label, degree) order.
	Labels []uint16
	// Edges lists the pattern's edges as index pairs into Labels.
	Edges [][2]int
}

// String renders the pattern as "[labels] {edges}".
func (p Pattern) String() string { return p.internal().String() }

func (p Pattern) internal() *pattern.Pattern {
	q, err := pattern.New(p.K)
	if err != nil {
		return &pattern.Pattern{}
	}
	for i, l := range p.Labels {
		q.Labels[i] = l
	}
	for _, e := range p.Edges {
		q.SetEdge(e[0], e[1])
	}
	return q
}

func publicPattern(p *pattern.Pattern) Pattern {
	out := Pattern{K: p.K, Labels: make([]uint16, p.K)}
	for i := 0; i < p.K; i++ {
		out.Labels[i] = p.Labels[i]
	}
	for i := 0; i < p.K; i++ {
		for j := i + 1; j < p.K; j++ {
			if p.HasEdge(i, j) {
				out.Edges = append(out.Edges, [2]int{i, j})
			}
		}
	}
	return out
}

// PatternCount is one aggregated pattern with its embedding count and (for
// FSM) its MNI support.
type PatternCount struct {
	Pattern Pattern
	Count   uint64
	Support uint64
}

func publicCounts(in []apps.PatternCount) []PatternCount {
	out := make([]PatternCount, len(in))
	for i, pc := range in {
		out[i] = PatternCount{Pattern: publicPattern(pc.Pattern), Count: pc.Count, Support: pc.Support}
	}
	return out
}

// Triangles counts the triangles of the graph (§5.1 Triangle Counting).
// Cancelling ctx aborts the run promptly with ctx.Err().
func (g *Graph) Triangles(ctx context.Context, cfg Config) (uint64, error) {
	return countOf(runJob(ctx, nil, Job{Graph: g, App: AppTriangles, Config: cfg}))
}

// Cliques counts the k-cliques of the graph (§5.1 Clique Discovery).
// Cancelling ctx aborts the run promptly with ctx.Err().
func (g *Graph) Cliques(ctx context.Context, k int, cfg Config) (uint64, error) {
	return countOf(runJob(ctx, nil, Job{Graph: g, App: AppCliques, K: k, Config: cfg}))
}

// Motifs counts the frequency of every k-vertex motif, treating the graph as
// unlabeled (§5.1 Motif Counting). k must be at most 8. Cancelling ctx
// aborts the run promptly with ctx.Err().
func (g *Graph) Motifs(ctx context.Context, k int, cfg Config) ([]PatternCount, error) {
	return patternsOf(runJob(ctx, nil, Job{Graph: g, App: AppMotifs, K: k, Config: cfg}))
}

// FSM mines the frequent subgraphs with k−1 edges and at most k vertices
// under the minimum image-based support metric (§5.1). Patterns whose
// support reaches the threshold are reported; following the paper (§6.2) the
// reported Support is the threshold-crossing value, not the exact MNI.
// Cancelling ctx aborts the run promptly with ctx.Err().
func (g *Graph) FSM(ctx context.Context, k int, support uint64, cfg Config) ([]PatternCount, error) {
	return patternsOf(runJob(ctx, nil, Job{Graph: g, App: AppFSM, K: k, Support: support, Config: cfg}))
}
