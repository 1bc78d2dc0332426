package kaleido

import (
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"
)

// starGraph builds a graph whose degree order differs from its id order, so
// the build-time relabel pass is a real permutation: vertex 5 is the hub.
func starGraph(t testing.TB) *Graph {
	t.Helper()
	b := NewGraphBuilder(6)
	for v := uint32(0); v < 5; v++ {
		b.AddEdge(5, v)
		b.SetLabel(v, uint16(v%2))
	}
	b.AddEdge(0, 1)
	b.SetLabel(5, 1)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if !g.Relabeled() {
		t.Fatal("star graph not relabeled")
	}
	return g
}

// TestRelabeledGraphAccessors pins the id-translation contract of the public
// Graph surface: labels, adjacency and neighbor lists answer in the caller's
// original ids even though the internal layout is degree-ordered.
func TestRelabeledGraphAccessors(t *testing.T) {
	g := starGraph(t)
	if got := g.Label(5); got != 1 {
		t.Fatalf("Label(5) = %d, want 1", got)
	}
	if got := g.Label(3); got != 1 {
		t.Fatalf("Label(3) = %d, want 1", got)
	}
	if !g.HasEdge(5, 2) || !g.HasEdge(2, 5) || !g.HasEdge(0, 1) {
		t.Fatal("existing edges not found under original ids")
	}
	if g.HasEdge(2, 3) {
		t.Fatal("HasEdge(2,3) = true, want false")
	}
	want := []uint32{0, 1, 2, 3, 4}
	got := g.Neighbors(5)
	if len(got) != len(want) {
		t.Fatalf("Neighbors(5) = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Neighbors(5) = %v, want %v", got, want)
		}
	}
}

// TestMinerOriginalIDs pins that a Miner over a relabeled graph hands
// original vertex ids to ForEach, ExpandVisit and the user filter.
func TestMinerOriginalIDs(t *testing.T) {
	g := starGraph(t)
	edges := map[string]bool{}
	for v := uint32(0); v < 5; v++ {
		edges[fmt.Sprint([]uint32{v, 5})] = true
	}
	edges[fmt.Sprint([]uint32{0, 1})] = true

	m, err := g.NewMiner(bgCtx, VertexInduced, Config{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	checkEdge := func(what string, u, v uint32) {
		a, b := u, v
		if a > b {
			a, b = b, a
		}
		if !edges[fmt.Sprint([]uint32{a, b})] {
			t.Errorf("%s: (%d,%d) is not an original-id edge", what, u, v)
		}
	}
	// The depth-1→2 expansion enumerates exactly the edge set; the filter and
	// the visitor must both observe it in original ids.
	err = m.ExpandVisit(bgCtx, func(_ int, emb []uint32, cand uint32) bool {
		checkEdge("filter", emb[0], cand)
		return true
	}, func(_ int, emb []uint32, cand uint32) error {
		checkEdge("visit", emb[0], cand)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Expand(bgCtx, nil); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex // ForEach calls back from both workers
	var got []string
	if err := m.ForEach(bgCtx, func(_ int, emb []uint32) error {
		u, v := emb[0], emb[1]
		if u > v {
			u, v = v, u
		}
		mu.Lock()
		got = append(got, fmt.Sprint([]uint32{u, v}))
		mu.Unlock()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	sort.Strings(got)
	if len(got) != len(edges) {
		t.Fatalf("ForEach saw %d edges, want %d", len(got), len(edges))
	}
	for _, e := range got {
		if !edges[e] {
			t.Fatalf("ForEach embedding %s is not an original-id edge", e)
		}
	}
}

// samePublicCounts compares result lists exactly — counts, supports and the
// representative pattern of every class, which is the class's smallest
// encoding and so the same for every thread count.
func samePublicCounts(t *testing.T, label string, got, want []PatternCount) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d patterns, want %d", label, len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("%s: pattern %d differs: %+v vs %+v", label, i, got[i], want[i])
		}
	}
}
