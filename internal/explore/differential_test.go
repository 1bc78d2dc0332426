package explore

// Differential tests for the fused canonical filter: the engine's expansion
// (provenance + suffix-maxima comparisons, state.go) must produce exactly
// the embeddings admitted by the O(k·log d̄) reference implementation of
// Definition 2 (CanonicalVertex/CanonicalEdge), at every depth, in both
// exploration modes, on random graphs.

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"kaleido/internal/graph"
	"kaleido/internal/run"
)

// refAdjMask is the adjacency mask by definition: bit i ⇔ HasEdge(emb[i], cand).
func refAdjMask(g *graph.Graph, emb []uint32, cand uint32) uint32 {
	var m uint32
	for i, v := range emb {
		if g.HasEdge(v, cand) {
			m |= 1 << i
		}
	}
	return m
}

// refExpandVertex expands every embedding with the reference filter. The
// candidates of an embedding are the union of its vertices' neighbour
// lists past emb[0] (nothing else passes Definition 2's property (i)),
// enumerated ascending by a k-way merge: each step takes the least head and
// advances every list holding it. The children share slabs of backing
// memory, each capped at its own length.
func refExpandVertex(g *graph.Graph, embs [][]uint32, vf VertexFilter) [][]uint32 {
	var out [][]uint32
	var heads [][]uint32
	var slab []uint32
	for _, emb := range embs {
		heads = heads[:0]
		for _, v := range emb {
			nb := g.Neighbors(v)
			heads = append(heads, nb[sort.Search(len(nb), func(i int) bool { return nb[i] > emb[0] }):])
		}
		for {
			u, found := uint32(0), false
			for _, h := range heads {
				if len(h) > 0 && (!found || h[0] < u) {
					u, found = h[0], true
				}
			}
			if !found {
				break
			}
			for i, h := range heads {
				if len(h) > 0 && h[0] == u {
					heads[i] = h[1:]
				}
			}
			if !CanonicalVertex(g, emb, u) {
				continue
			}
			if vf != nil && !vf(0, emb, u, refAdjMask(g, emb, u)) {
				continue
			}
			if len(slab)+len(emb)+1 > cap(slab) {
				slab = make([]uint32, 0, max(1<<16, len(emb)+1))
			}
			n := len(slab)
			slab = append(append(slab, emb...), u)
			out = append(out, slab[n:len(slab):len(slab)])
		}
	}
	return out
}

// refExpandEdge expands every edge-id embedding with the reference filter.
func refExpandEdge(g *graph.Graph, embs [][]uint32) [][]uint32 {
	var out [][]uint32
	for _, emb := range embs {
		vset := map[uint32]bool{}
		for _, eid := range emb {
			e := g.EdgeAt(eid)
			vset[e.U] = true
			vset[e.V] = true
		}
		seen := map[uint32]bool{}
		var cands []uint32
		for v := range vset {
			for _, f := range g.IncidentEdges(v) {
				if !seen[f] {
					seen[f] = true
					cands = append(cands, f)
				}
			}
		}
		sort.Slice(cands, func(i, j int) bool { return cands[i] < cands[j] })
		for _, f := range cands {
			if !CanonicalEdge(g, emb, f) {
				continue
			}
			child := append(append([]uint32(nil), emb...), f)
			out = append(out, child)
		}
	}
	return out
}

// sortEmbs orders embeddings lexicographically for comparison.
func sortEmbs(embs [][]uint32) {
	sort.Slice(embs, func(i, j int) bool {
		for x := range embs[i] {
			if embs[i][x] != embs[j][x] {
				return embs[i][x] < embs[j][x]
			}
		}
		return false
	})
}

func embsEqual(a, b [][]uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

func diffSample(got, want [][]uint32) string {
	key := func(e []uint32) string { return fmt.Sprint(e) }
	g, w := map[string]bool{}, map[string]bool{}
	for _, e := range got {
		g[key(e)] = true
	}
	for _, e := range want {
		w[key(e)] = true
	}
	for k := range g {
		if !w[k] {
			return "spurious " + k
		}
	}
	for k := range w {
		if !g[k] {
			return "missing " + k
		}
	}
	return "multiset mismatch (duplicates)"
}

// TestDifferentialFusedCanonicalVertex drives the engine and the reference
// side by side on random graphs and compares every level.
func TestDifferentialFusedCanonicalVertex(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	for trial := 0; trial < 20; trial++ {
		n := 8 + rng.Intn(20)
		g := randomGraph(rng, n, rng.Intn(4*n)+1)
		maxDepth := 3 + rng.Intn(2)

		e, err := New(Config{Graph: g, Mode: VertexInduced, Env: &run.Env{Threads: 3}})
		if err != nil {
			t.Fatal(err)
		}
		if err := e.InitVertices(nil); err != nil {
			t.Fatal(err)
		}
		ref := make([][]uint32, 0, g.N())
		for v := uint32(0); v < uint32(g.N()); v++ {
			ref = append(ref, []uint32{v})
		}
		for depth := 2; depth <= maxDepth; depth++ {
			if err := e.Expand(bgCtx, nil, nil); err != nil {
				t.Fatal(err)
			}
			ref = refExpandVertex(g, ref, nil)
			got := collect(t, e)
			sortEmbs(ref)
			if !embsEqual(got, ref) {
				t.Fatalf("trial %d depth %d: engine %d embeddings, reference %d: %s",
					trial, depth, len(got), len(ref), diffSample(got, ref))
			}
		}
		e.Close()
	}
}

// TestDifferentialFusedCanonicalVertexWithFilter checks that the fused
// filter composes with a user EmbeddingFilter exactly like the reference.
func TestDifferentialFusedCanonicalVertexWithFilter(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 10; trial++ {
		n := 10 + rng.Intn(15)
		g := randomGraph(rng, n, rng.Intn(5*n)+n)
		clique := func(_ int, emb []uint32, cand, _ uint32) bool {
			for _, v := range emb {
				if !g.HasEdge(v, cand) {
					return false
				}
			}
			return true
		}
		e, err := New(Config{Graph: g, Mode: VertexInduced, Env: &run.Env{Threads: 2}})
		if err != nil {
			t.Fatal(err)
		}
		if err := e.InitVertices(nil); err != nil {
			t.Fatal(err)
		}
		ref := make([][]uint32, 0, g.N())
		for v := uint32(0); v < uint32(g.N()); v++ {
			ref = append(ref, []uint32{v})
		}
		for depth := 2; depth <= 4; depth++ {
			if err := e.Expand(bgCtx, clique, nil); err != nil {
				t.Fatal(err)
			}
			ref = refExpandVertex(g, ref, clique)
			got := collect(t, e)
			sortEmbs(ref)
			if !embsEqual(got, ref) {
				t.Fatalf("trial %d depth %d: engine %d cliques, reference %d: %s",
					trial, depth, len(got), len(ref), diffSample(got, ref))
			}
		}
		e.Close()
	}
}

// TestDifferentialFusedCanonicalEdge is the edge-induced differential test.
func TestDifferentialFusedCanonicalEdge(t *testing.T) {
	rng := rand.New(rand.NewSource(4321))
	for trial := 0; trial < 20; trial++ {
		n := 6 + rng.Intn(12)
		g := randomGraph(rng, n, rng.Intn(2*n)+1)

		e, err := New(Config{Graph: g, Mode: EdgeInduced, Env: &run.Env{Threads: 3}})
		if err != nil {
			t.Fatal(err)
		}
		if err := e.InitEdges(nil); err != nil {
			t.Fatal(err)
		}
		ref := make([][]uint32, 0, g.M())
		for f := uint32(0); f < uint32(g.M()); f++ {
			ref = append(ref, []uint32{f})
		}
		for depth := 2; depth <= 3; depth++ {
			if err := e.Expand(bgCtx, nil, nil); err != nil {
				t.Fatal(err)
			}
			ref = refExpandEdge(g, ref)
			got := collect(t, e)
			sortEmbs(ref)
			if !embsEqual(got, ref) {
				t.Fatalf("trial %d depth %d: engine %d embeddings, reference %d: %s",
					trial, depth, len(got), len(ref), diffSample(got, ref))
			}
		}
		e.Close()
	}
}

// TestDifferentialForEachExpansion checks the non-materializing walk
// (ExpandVisit) against the reference on the final expansion step.
func TestDifferentialForEachExpansion(t *testing.T) {
	rng := rand.New(rand.NewSource(777))
	for trial := 0; trial < 10; trial++ {
		n := 8 + rng.Intn(16)
		g := randomGraph(rng, n, rng.Intn(4*n)+1)

		e, err := New(Config{Graph: g, Mode: VertexInduced, Env: &run.Env{Threads: 3}})
		if err != nil {
			t.Fatal(err)
		}
		if err := e.InitVertices(nil); err != nil {
			t.Fatal(err)
		}
		ref := make([][]uint32, 0, g.N())
		for v := uint32(0); v < uint32(g.N()); v++ {
			ref = append(ref, []uint32{v})
		}
		for depth := 2; depth <= 2; depth++ {
			if err := e.Expand(bgCtx, nil, nil); err != nil {
				t.Fatal(err)
			}
			ref = refExpandVertex(g, ref, nil)
		}
		// One more step through ExpandVisit instead of Expand.
		ref = refExpandVertex(g, ref, nil)
		var got [][]uint32
		gotCh := make(chan []uint32, 64)
		done := make(chan struct{})
		go func() {
			for emb := range gotCh {
				got = append(got, emb)
			}
			close(done)
		}()
		err = e.ExpandVisit(bgCtx, nil, nil, func(_ int, emb []uint32, cand uint32) error {
			gotCh <- append(append([]uint32(nil), emb...), cand)
			return nil
		})
		close(gotCh)
		<-done
		if err != nil {
			t.Fatal(err)
		}
		sortEmbs(got)
		sortEmbs(ref)
		if !embsEqual(got, ref) {
			t.Fatalf("trial %d: walk %d extensions, reference %d: %s",
				trial, len(got), len(ref), diffSample(got, ref))
		}
		e.Close()
	}
}
