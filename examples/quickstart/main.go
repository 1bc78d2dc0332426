// Quickstart: build a small labeled graph and run all four mining
// applications through the public API. This uses the running example of the
// paper's Fig. 3 (5 vertices, 7 edges), so the outputs match the numbers
// worked out in §3.1 and §5.1: 3 triangles, 3 3-cliques, and 3-motifs
// splitting into 5 chains and 3 triangles.
package main

import (
	"context"
	"fmt"
	"log"

	"kaleido"
)

func main() {
	// Every blocking call takes a context: cancel it to abort a run promptly
	// (workers poll between blocks of work and return ctx.Err()).
	ctx := context.Background()

	b := kaleido.NewGraphBuilder(5)
	for _, e := range [][2]uint32{{0, 1}, {0, 4}, {1, 4}, {1, 2}, {2, 3}, {2, 4}, {3, 4}} {
		b.AddEdge(e[0], e[1])
	}
	// Two label classes, as in the paper's pattern-matching example (Fig. 1).
	b.SetLabel(1, 1)
	b.SetLabel(4, 1)
	g, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("graph: %d vertices, %d edges\n", g.N(), g.M())

	cfg := kaleido.Config{}

	triangles, err := g.Triangles(ctx, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("triangles:", triangles) // 3

	cliques, err := g.Cliques(ctx, 3, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("3-cliques:", cliques) // 3

	motifs, err := g.Motifs(ctx, 3, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("3-motifs:")
	for _, m := range motifs {
		fmt.Printf("  %v ×%d\n", m.Pattern, m.Count) // chain ×5, triangle ×3
	}

	frequent, err := g.FSM(ctx, 3, 2, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("frequent 2-edge patterns (support ≥ 2): %d\n", len(frequent))
	for _, f := range frequent {
		fmt.Printf("  %v count=%d support=%d\n", f.Pattern, f.Count, f.Support)
	}

	// Custom workloads use the Miner directly. The EmbeddingFilter is
	// worker-aware — the worker index lets a filter keep per-goroutine
	// scratch (this one needs none: it just asks the graph).
	// When the run only needs a number, finish with ExpandCount instead of
	// a final Expand: the last level — the largest one — is counted at the
	// expansion frontier and never materialized, so it writes zero bytes.
	m, err := g.NewMiner(ctx, kaleido.VertexInduced, cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer m.Close()
	adjacentToAll := func(_ int, emb []uint32, cand uint32) bool {
		for _, v := range emb {
			if !g.HasEdge(v, cand) {
				return false
			}
		}
		return true
	}
	if err := m.Expand(ctx, adjacentToAll); err != nil { // 2-cliques: the edges
		log.Fatal(err)
	}
	nclq, err := m.ExpandCount(ctx, adjacentToAll) // 3-cliques, not stored
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("3-cliques via Miner.ExpandCount:", nclq) // 3
}
