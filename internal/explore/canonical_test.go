package explore

import (
	"math/rand"
	"reflect"
	"testing"

	"kaleido/internal/graph"
)

func TestCanonicalVertexPaperExample(t *testing.T) {
	// §3.1's worked example: expanding s8 = ⟨2,3⟩ (0-based ⟨1,2⟩): candidate
	// 0 violates property (i); 3 and 4 are canonical.
	g := paperGraph(t)
	emb := []uint32{1, 2}
	if CanonicalVertex(g, emb, 0) {
		t.Error("candidate 0 accepted against first-vertex rule")
	}
	if !CanonicalVertex(g, emb, 3) || !CanonicalVertex(g, emb, 4) {
		t.Error("candidates 3/4 rejected")
	}
	// Duplicates are rejected.
	if CanonicalVertex(g, emb, 2) {
		t.Error("duplicate vertex accepted")
	}
	// Non-neighbors are rejected (vertex 3 is no neighbor of {0,1}).
	if CanonicalVertex(g, []uint32{0, 1}, 3) {
		t.Error("non-neighbor accepted")
	}
}

func TestCanonicalVertexPropertyIII(t *testing.T) {
	// Path graph 0-1-2-3 plus edge 0-3: embedding ⟨0,3⟩; candidate 1 is a
	// neighbor of 0 (position a=0) — but wait, 1 < 3 at a later position,
	// violating property (iii): after the first attachment position, all
	// existing vertices must be smaller than the candidate.
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	b.AddEdge(0, 3)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if CanonicalVertex(g, []uint32{0, 3}, 1) {
		t.Error("⟨0,3⟩+1 accepted: 1 attaches at position 0 but 3 > 1 sits after it")
	}
	// ⟨0,1⟩+3: 3 attaches at position 0 and 1 < 3 — canonical.
	if !CanonicalVertex(g, []uint32{0, 1}, 3) {
		t.Error("⟨0,1⟩+3 rejected")
	}
}

func TestMergeUnion(t *testing.T) {
	cases := []struct{ a, b, want []uint32 }{
		{nil, nil, nil},
		{[]uint32{1, 3}, nil, []uint32{1, 3}},
		{[]uint32{1, 3}, []uint32{2, 3, 5}, []uint32{1, 2, 3, 5}},
		{[]uint32{1, 1}, []uint32{1}, []uint32{1, 1}}, // inputs assumed unique; dup in a preserved
	}
	for _, c := range cases {
		got := mergeUnion(nil, c.a, c.b)
		if len(got) == 0 {
			got = nil
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("mergeUnion(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestInsertAndContainsSorted(t *testing.T) {
	var s []uint32
	for _, v := range []uint32{5, 1, 3, 3, 9, 1} {
		s = insertSorted(s, v)
	}
	if !reflect.DeepEqual(s, []uint32{1, 3, 5, 9}) {
		t.Fatalf("s = %v", s)
	}
	for _, v := range []uint32{1, 3, 5, 9} {
		if !containsSorted(s, v) {
			t.Errorf("containsSorted(%d) = false", v)
		}
	}
	for _, v := range []uint32{0, 2, 4, 10} {
		if containsSorted(s, v) {
			t.Errorf("containsSorted(%d) = true", v)
		}
	}
}

func TestVertexStateIncremental(t *testing.T) {
	// Incremental candidate sets must equal sets recomputed from scratch,
	// across a random walk of updates.
	rng := rand.New(rand.NewSource(8))
	g := randomGraph(rng, 20, 60)
	st := newVertexState(g, 3)
	for trial := 0; trial < 100; trial++ {
		emb := []uint32{
			uint32(rng.Intn(g.N())),
			uint32(rng.Intn(g.N())),
			uint32(rng.Intn(g.N())),
		}
		st.update(emb, 1) // full recompute through the incremental path
		want := map[uint32]bool{}
		for _, v := range emb {
			for _, u := range g.Neighbors(v) {
				want[u] = true
			}
		}
		got := st.candidates(3)
		if len(got.ids) != len(want) {
			t.Fatalf("trial %d: %d candidates, want %d", trial, len(got.ids), len(want))
		}
		if len(got.adj) != len(got.ids) {
			t.Fatalf("trial %d: %d provenances for %d ids", trial, len(got.adj), len(got.ids))
		}
		for i, u := range got.ids {
			if !want[u] {
				t.Fatalf("trial %d: spurious candidate %d", trial, u)
			}
			// Provenance is the set of embedding positions adjacent to u.
			if wantAdj := refAdjMask(g, emb, u); wantAdj == 0 || got.adj[i] != wantAdj {
				t.Fatalf("trial %d: candidate %d adj = %b, want %b", trial, u, got.adj[i], wantAdj)
			}
		}
	}
}

// TestEdgeStateNewVertexCount checks that an edge's new endpoints, and only
// those, join the edge state's sorted vertex set.
func TestEdgeStateNewVertexCount(t *testing.T) {
	g := paperGraph(t)
	st := newEdgeState(g, 2)
	// Embedding of one edge {0,1} (find its id).
	eid, ok := g.EdgeID(0, 1)
	if !ok {
		t.Fatal("edge {0,1} missing")
	}
	st.update([]uint32{eid}, 1)
	if got := st.verts[0]; !reflect.DeepEqual(got, []uint32{0, 1}) {
		t.Fatalf("vertices = %v", got)
	}
	// Edge {1,4} shares vertex 1 → one new vertex; {2,3} shares none → two.
	e14, _ := g.EdgeID(1, 4)
	e23, _ := g.EdgeID(2, 3)
	st.update([]uint32{eid, e14}, 2)
	if got := st.verts[1]; !reflect.DeepEqual(got, []uint32{0, 1, 4}) {
		t.Fatalf("vertices after {1,4} = %v", got)
	}
	st.update([]uint32{eid, e23}, 2)
	if got := st.verts[1]; !reflect.DeepEqual(got, []uint32{0, 1, 2, 3}) {
		t.Fatalf("vertices after {2,3} = %v", got)
	}
}
