package explore

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"kaleido/internal/graph"
	"kaleido/internal/memtrack"
	"kaleido/internal/run"
)

// paperGraph is the 5-vertex running example of Fig. 3 (0-based).
func paperGraph(t testing.TB) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(5)
	for _, e := range [][2]uint32{{0, 1}, {0, 4}, {1, 4}, {1, 2}, {2, 3}, {2, 4}, {3, 4}} {
		b.AddEdge(e[0], e[1])
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func randomGraph(rng *rand.Rand, n, m int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i < m; i++ {
		b.AddEdge(uint32(rng.Intn(n)), uint32(rng.Intn(n)))
	}
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// collect gathers all top-level embeddings of an explorer.
func collect(t *testing.T, e *Explorer) [][]uint32 {
	t.Helper()
	var mu sync.Mutex
	var out [][]uint32
	if err := e.ForEach(bgCtx, func(_ int, emb []uint32) error {
		cp := append([]uint32(nil), emb...)
		mu.Lock()
		out = append(out, cp)
		mu.Unlock()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	sort.Slice(out, func(i, j int) bool {
		for x := range out[i] {
			if out[i][x] != out[j][x] {
				return out[i][x] < out[j][x]
			}
		}
		return false
	})
	return out
}

// setKey canonicalizes an embedding as an unordered unit set.
func setKey(emb []uint32) string {
	s := append([]uint32(nil), emb...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return fmt.Sprint(s)
}

// connectedVertexSubsets brute-forces all connected induced k-vertex
// subgraphs of g, keyed by vertex set.
func connectedVertexSubsets(g *graph.Graph, k int) map[string]bool {
	out := map[string]bool{}
	set := make([]uint32, 0, k)
	var rec func(start uint32)
	rec = func(start uint32) {
		if len(set) == k {
			if vertexSetConnected(g, set) {
				out[setKey(set)] = true
			}
			return
		}
		for v := start; v < uint32(g.N()); v++ {
			set = append(set, v)
			rec(v + 1)
			set = set[:len(set)-1]
		}
	}
	rec(0)
	return out
}

func vertexSetConnected(g *graph.Graph, set []uint32) bool {
	if len(set) == 0 {
		return false
	}
	seen := map[uint32]bool{set[0]: true}
	queue := []uint32{set[0]}
	in := map[uint32]bool{}
	for _, v := range set {
		in[v] = true
	}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, u := range g.Neighbors(v) {
			if in[u] && !seen[u] {
				seen[u] = true
				queue = append(queue, u)
			}
		}
	}
	return len(seen) == len(set)
}

// connectedEdgeSubsets brute-forces all connected k-edge subgraphs, keyed by
// edge-id set.
func connectedEdgeSubsets(g *graph.Graph, k int) map[string]bool {
	out := map[string]bool{}
	set := make([]uint32, 0, k)
	var rec func(start uint32)
	rec = func(start uint32) {
		if len(set) == k {
			if edgeSetConnected(g, set) {
				out[setKey(set)] = true
			}
			return
		}
		for e := start; e < uint32(g.M()); e++ {
			set = append(set, e)
			rec(e + 1)
			set = set[:len(set)-1]
		}
	}
	rec(0)
	return out
}

func edgeSetConnected(g *graph.Graph, set []uint32) bool {
	if len(set) == 0 {
		return false
	}
	adj := func(a, b uint32) bool {
		ea, eb := g.EdgeAt(a), g.EdgeAt(b)
		return ea.U == eb.U || ea.U == eb.V || ea.V == eb.U || ea.V == eb.V
	}
	seen := map[uint32]bool{set[0]: true}
	queue := []uint32{set[0]}
	for len(queue) > 0 {
		e := queue[0]
		queue = queue[1:]
		for _, f := range set {
			if !seen[f] && adj(e, f) {
				seen[f] = true
				queue = append(queue, f)
			}
		}
	}
	return len(seen) == len(set)
}

func newVertexExplorer(t *testing.T, g *graph.Graph, threads int) *Explorer {
	t.Helper()
	e, err := New(Config{Graph: g, Mode: VertexInduced, Env: &run.Env{Threads: threads}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	if err := e.InitVertices(nil); err != nil {
		t.Fatal(err)
	}
	return e
}

func TestPaperFig3Enumeration(t *testing.T) {
	g := paperGraph(t)
	e := newVertexExplorer(t, g, 1)
	if err := e.Expand(bgCtx, nil, nil); err != nil {
		t.Fatal(err)
	}
	if e.Count() != 7 {
		t.Fatalf("2-embeddings = %d, want 7 (paper s6..s12)", e.Count())
	}
	if err := e.Expand(bgCtx, nil, nil); err != nil {
		t.Fatal(err)
	}
	if e.Count() != 8 {
		t.Fatalf("3-embeddings = %d, want 8 (paper s13..s20)", e.Count())
	}
	want := [][]uint32{
		{0, 1, 2}, {0, 1, 4}, {0, 4, 2}, {0, 4, 3},
		{1, 2, 3}, {1, 2, 4}, {1, 4, 3}, {2, 3, 4},
	}
	if got := collect(t, e); !reflect.DeepEqual(got, want) {
		t.Fatalf("3-embeddings = %v\nwant %v", got, want)
	}
}

// TestVertexEnumerationMatchesBruteForce is the central completeness and
// uniqueness property of the canonical filter (Definition 2).
func TestVertexEnumerationMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 25; trial++ {
		g := randomGraph(rng, 4+rng.Intn(9), rng.Intn(25))
		for k := 2; k <= 4; k++ {
			e := newVertexExplorer(t, g, 1+rng.Intn(4))
			for i := 1; i < k; i++ {
				if err := e.Expand(bgCtx, nil, nil); err != nil {
					t.Fatal(err)
				}
			}
			want := connectedVertexSubsets(g, k)
			got := collect(t, e)
			if len(got) != len(want) {
				t.Fatalf("trial %d k=%d: %d embeddings, brute force %d", trial, k, len(got), len(want))
			}
			seen := map[string]bool{}
			for _, emb := range got {
				key := setKey(emb)
				if seen[key] {
					t.Fatalf("trial %d k=%d: duplicate embedding %v", trial, k, emb)
				}
				seen[key] = true
				if !want[key] {
					t.Fatalf("trial %d k=%d: spurious embedding %v", trial, k, emb)
				}
			}
		}
	}
}

// TestEdgeEnumerationMatchesBruteForce is the edge-induced analogue.
func TestEdgeEnumerationMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		g := randomGraph(rng, 4+rng.Intn(6), rng.Intn(14))
		if g.M() == 0 {
			continue
		}
		for k := 2; k <= 3; k++ {
			e, err := New(Config{Graph: g, Mode: EdgeInduced, Env: &run.Env{Threads: 1 + rng.Intn(4)}})
			if err != nil {
				t.Fatal(err)
			}
			if err := e.InitEdges(nil); err != nil {
				t.Fatal(err)
			}
			for i := 1; i < k; i++ {
				if err := e.Expand(bgCtx, nil, nil); err != nil {
					t.Fatal(err)
				}
			}
			want := connectedEdgeSubsets(g, k)
			got := collect(t, e)
			if len(got) != len(want) {
				t.Fatalf("trial %d k=%d: %d edge embeddings, brute force %d", trial, k, len(got), len(want))
			}
			seen := map[string]bool{}
			for _, emb := range got {
				key := setKey(emb)
				if seen[key] || !want[key] {
					t.Fatalf("trial %d k=%d: bad embedding %v (dup=%v)", trial, k, emb, seen[key])
				}
				seen[key] = true
			}
			e.Close()
		}
	}
}

// TestHybridMatchesInMemory forces every level to disk and checks identical
// results.
func TestHybridMatchesInMemory(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 6; trial++ {
		g := randomGraph(rng, 20+rng.Intn(20), 60+rng.Intn(60))
		mem := newVertexExplorer(t, g, 3)
		for i := 0; i < 2; i++ {
			if err := mem.Expand(bgCtx, nil, nil); err != nil {
				t.Fatal(err)
			}
		}
		wantSets := collect(t, mem)

		hy, err := New(Config{Graph: g, Mode: VertexInduced, Env: &run.Env{
			Threads:      3,
			MemoryBudget: 1, // force every level to disk
			SpillDir:     t.TempDir(),
			Tracker:      memtrack.New(),
		}})
		if err != nil {
			t.Fatal(err)
		}
		if err := hy.InitVertices(nil); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			if err := hy.Expand(bgCtx, nil, nil); err != nil {
				t.Fatal(err)
			}
		}
		if hy.SpilledLevels() != 2 {
			t.Fatalf("trial %d: spilled %d levels, want 2", trial, hy.SpilledLevels())
		}
		got := collect(t, hy)
		if !reflect.DeepEqual(got, wantSets) {
			t.Fatalf("trial %d: hybrid results differ (%d vs %d embeddings)",
				trial, len(got), len(wantSets))
		}
		hy.Close()
	}
}

func TestThreadCountInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := randomGraph(rng, 40, 160)
	var want [][]uint32
	for _, threads := range []int{1, 2, 4, 8} {
		e := newVertexExplorer(t, g, threads)
		for i := 0; i < 2; i++ {
			if err := e.Expand(bgCtx, nil, nil); err != nil {
				t.Fatal(err)
			}
		}
		got := collect(t, e)
		if want == nil {
			want = got
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("threads=%d: results differ", threads)
		}
	}
}

func TestUserFilterClique(t *testing.T) {
	// A clique filter (candidate adjacent to every embedding vertex) over
	// the paper graph: triangles {0,1,4}, {1,2,4}, {2,3,4}.
	g := paperGraph(t)
	e := newVertexExplorer(t, g, 2)
	cliqueFilter := func(_ int, emb []uint32, cand, _ uint32) bool {
		for _, v := range emb {
			if !g.HasEdge(v, cand) {
				return false
			}
		}
		return true
	}
	for i := 0; i < 2; i++ {
		if err := e.Expand(bgCtx, cliqueFilter, nil); err != nil {
			t.Fatal(err)
		}
	}
	got := collect(t, e)
	want := [][]uint32{{0, 1, 4}, {1, 2, 4}, {2, 3, 4}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("3-cliques = %v, want %v", got, want)
	}
}

// TestForEachExpansionMatchesExpand checks that the per-extension walk
// (ExpandVisit) visits exactly the children Expand materializes.
func TestForEachExpansionMatchesExpand(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := randomGraph(rng, 25, 80)
	a := newVertexExplorer(t, g, 3)
	if err := a.Expand(bgCtx, nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := a.Expand(bgCtx, nil, nil); err != nil {
		t.Fatal(err)
	}
	wantCount := a.Count()

	b := newVertexExplorer(t, g, 3)
	if err := b.Expand(bgCtx, nil, nil); err != nil {
		t.Fatal(err)
	}
	var n int64
	var mu sync.Mutex
	if err := b.ExpandVisit(bgCtx, nil, nil, func(_ int, _ []uint32, _ uint32) error {
		mu.Lock()
		n++
		mu.Unlock()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if int(n) != wantCount {
		t.Fatalf("ExpandVisit found %d, Expand materialized %d", n, wantCount)
	}
}

func TestInitEdgesOnVertexModeRejected(t *testing.T) {
	g := paperGraph(t)
	e, err := New(Config{Graph: g, Mode: VertexInduced})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.InitEdges(nil); err == nil {
		t.Fatal("InitEdges accepted on vertex-induced explorer")
	}
	if err := e.Expand(bgCtx, nil, nil); err == nil {
		t.Fatal("Expand accepted before Init")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("nil graph accepted")
	}
	g := paperGraph(t)
	if _, err := New(Config{Graph: g, Env: &run.Env{MemoryBudget: 100}}); err == nil {
		t.Fatal("budget without spill dir accepted")
	}
}

func TestPartitionEven(t *testing.T) {
	if b := partitionEven(10, 3); !reflect.DeepEqual(b, []int{0, 3, 6, 10}) {
		t.Fatalf("partitionEven(10, 3) = %v", b)
	}
	if b := partitionEven(0, 4); len(b) != 5 {
		t.Fatalf("empty partition = %v", b)
	}
}
