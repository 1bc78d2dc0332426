// Motif profiling of a protein-interaction-style network — the paper's
// introduction motivates motif counting with "the frequency distribution of
// all motifs that occur in PPI networks" (Przulj's graphlet degree work).
//
// The example generates two synthetic networks with equal size but different
// wiring (power-law vs uniform) and compares their 4-motif spectra: the
// skewed network is star-heavy while the uniform one carries relatively more
// paths — the kind of structural fingerprint motif counting exists for.
//
// Motifs runs on the sink pipeline: only k−2 levels are ever stored — the
// last two are counted by row at the frontier, inside the Mapper
// (Miner.ExpandVisit streams one level the same way for custom
// aggregations). If all
// you need is the total number of k-embeddings, not the per-motif split,
// Miner.ExpandCount does the last step with per-worker counters and no
// pattern hashing at all. Filters passed to Miner.Expand* are worker-aware:
// func(worker int, emb []uint32, cand uint32) bool.
package main

import (
	"context"
	"fmt"
	"log"

	"kaleido"
)

func main() {
	const n, m = 3000, 9000
	powerlaw, err := kaleido.Synthetic(n, m, 1, 7)
	if err != nil {
		log.Fatal(err)
	}
	uniform := buildUniform(n, m)

	ctx := context.Background()
	cfg := kaleido.Config{}
	for _, net := range []struct {
		name string
		g    *kaleido.Graph
	}{{"power-law (PPI-like)", powerlaw}, {"uniform (rewired null model)", uniform}} {
		motifs, err := net.g.Motifs(ctx, 4, cfg)
		if err != nil {
			log.Fatal(err)
		}
		var total uint64
		for _, mt := range motifs {
			total += mt.Count
		}
		fmt.Printf("%s — %d vertices, %d edges, %d distinct 4-motifs, %d occurrences\n",
			net.name, net.g.N(), net.g.M(), len(motifs), total)
		for _, mt := range motifs {
			fmt.Printf("  %-28v %10d  (%.2f%%)\n", mt.Pattern, mt.Count, 100*float64(mt.Count)/float64(total))
		}
	}
}

// buildUniform makes an Erdős–Rényi-style graph with a fixed seed.
func buildUniform(n, m int) *kaleido.Graph {
	b := kaleido.NewGraphBuilder(n)
	// Deterministic LCG so the example needs no extra imports.
	state := uint64(99)
	next := func(mod int) uint32 {
		state = state*6364136223846793005 + 1442695040888963407
		return uint32((state >> 33) % uint64(mod))
	}
	for i := 0; i < m; i++ {
		b.AddEdge(next(n), next(n))
	}
	g, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}
	return g
}
