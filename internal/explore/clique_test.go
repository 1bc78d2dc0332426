package explore

// Clique mode against the union path it replaces for cliques: VertexInduced
// plus the all-ones mask filter stores exactly the strictly increasing
// cliques, so every level a Clique run stores must be the same embeddings in
// the same order, and every count the same, on every storage regime.

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"kaleido/internal/graph"
	"kaleido/internal/run"
	"kaleido/internal/storage"
)

// allOnesFilter is the clique filter of the union path: a candidate must be
// adjacent to every embedding vertex.
func allOnesFilter(_ int, emb []uint32, _, adj uint32) bool { return adj == 1<<len(emb)-1 }

// cliqueGraph is a sparse random graph with hubs and planted cliques: enough
// edges that an all-disk level 2 spans several decoded blocks (the walker
// then splits groups into continuation runs), and cliques up to size 9.
func cliqueGraph(t *testing.T, rng *rand.Rand, hubThreshold int, relabel bool) *graph.Graph {
	return plantedGraph(t, rng, plantedShape{n: 400, edges: 5000, hubDeg: 150, clique: 9}, hubThreshold, relabel)
}

// plantedShape sizes plantedGraph: n vertices, edges random edges, two hubs
// of hubDeg extra edges each, and five planted cliques of clique vertices.
type plantedShape struct{ n, edges, hubDeg, clique int }

// plantedGraph builds a random graph of shape sh, with hub bitset rows from
// degree hubThreshold on (-1: none), relabelled hubs-first if relabel.
func plantedGraph(t *testing.T, rng *rand.Rand, sh plantedShape, hubThreshold int, relabel bool) *graph.Graph {
	t.Helper()
	n := sh.n
	b := graph.NewBuilder(n)
	for i := 0; i < sh.edges; i++ {
		b.AddEdge(uint32(rng.Intn(n)), uint32(rng.Intn(n)))
	}
	for h := 0; h < 2; h++ {
		hub := uint32(rng.Intn(n))
		for i := 0; i < sh.hubDeg; i++ {
			b.AddEdge(hub, uint32(rng.Intn(n)))
		}
	}
	for c := 0; c < 5; c++ {
		members := rng.Perm(n)[:sh.clique]
		for i, u := range members {
			for _, v := range members[i+1:] {
				b.AddEdge(uint32(u), uint32(v))
			}
		}
	}
	b.SetHubThreshold(hubThreshold)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if relabel {
		if g, err = graph.Relabel(g); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// walkLevel returns the top level's embeddings in stored order, walked by
// one walker, and how many of its runs were block-seam continuations.
func walkLevel(t *testing.T, e *Explorer) (embs [][]uint32, continuations int) {
	t.Helper()
	k := e.Depth()
	w, err := storage.NewWalker(e.CSE(), 0, e.Count())
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for {
		emb, from, leaves, ok := w.NextRun()
		if !ok {
			break
		}
		if from == k && k > 1 {
			continuations++
		}
		for _, u := range leaves {
			emb[k-1] = u
			embs = append(embs, append([]uint32(nil), emb...))
		}
	}
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	return embs, continuations
}

// maskFilterLevels runs the union path to depth maxDepth: levels[d-1] is the
// stored level of depth d, counts[d-1] what ExpandCount reports there, and
// bytes[d-1] the CSE's resident bytes at depth d.
func maskFilterLevels(t *testing.T, g *graph.Graph, maxDepth int) (levels [][][]uint32, counts []uint64, bytes []int64) {
	t.Helper()
	e := newVertexExplorer(t, g, 2)
	for d := 1; d <= maxDepth; d++ {
		if d > 1 {
			if err := e.Expand(bgCtx, allOnesFilter, nil); err != nil {
				t.Fatal(err)
			}
		}
		lvl, _ := walkLevel(t, e)
		n, err := e.ExpandCount(bgCtx, allOnesFilter, nil)
		if err != nil {
			t.Fatal(err)
		}
		levels, counts, bytes = append(levels, lvl), append(counts, n), append(bytes, e.Bytes())
	}
	return levels, counts, bytes
}

func TestCliqueModeMatchesMaskFilter(t *testing.T) {
	const maxDepth = 6
	rng := rand.New(rand.NewSource(25))
	for _, hubThreshold := range []int{-1, 8} { // hub bitset rows off / on
		for _, relabel := range []bool{false, true} {
			g := cliqueGraph(t, rng, hubThreshold, relabel)
			levels, counts, bytes := maskFilterLevels(t, g, maxDepth)
			if counts[maxDepth-1] == 0 {
				t.Fatalf("degenerate graph: no %d-cliques", maxDepth+1)
			}
			checkCliqueLeaves(t, g, levels)
			regimes := []struct {
				name   string
				budget int64
			}{
				{"unbudgeted", 0},
				{"disk", 1},
				// Level 2 fits only partly.
				{"hybrid", bytes[0] + (bytes[1]-bytes[0])*3/4},
			}
			for _, threads := range []int{1, 2, 4} {
				for _, rg := range regimes {
					name := fmt.Sprintf("hub%d/relabel=%v/threads%d/%s", hubThreshold, relabel, threads, rg.name)
					t.Run(name, func(t *testing.T) {
						env := &run.Env{Threads: threads}
						if rg.budget > 0 {
							env.MemoryBudget, env.SpillDir = rg.budget, t.TempDir()
						}
						continuations, mixed := checkCliqueLevels(t, g, env, levels, counts)
						if rg.name == "disk" && threads == 1 && continuations == 0 {
							t.Fatal("no continuation run at a block seam: the all-disk case does not exercise kept stamps")
						}
						if rg.name == "hybrid" && !mixed {
							t.Fatal("no level with both memory and disk parts")
						}
					})
				}
			}
		}
	}
}

// checkCliqueLevels runs Clique mode under env to depth len(levels) and holds
// every stored level and every ExpandCount to the union path's. It reports
// the block-seam continuation runs it walked and whether some level was split
// between memory and disk.
func checkCliqueLevels(t *testing.T, g *graph.Graph, env *run.Env, levels [][][]uint32, counts []uint64) (continuations int, mixed bool) {
	t.Helper()
	e, err := New(Config{Graph: g, Mode: Clique, Env: env})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.InitVertices(nil); err != nil {
		t.Fatal(err)
	}
	for d := 1; d <= len(levels); d++ {
		if d > 1 {
			if err := e.Expand(bgCtx, nil, nil); err != nil {
				t.Fatal(err)
			}
		}
		got, c := walkLevel(t, e)
		continuations += c
		if !embsEqual(got, levels[d-1]) {
			t.Fatalf("depth %d: %d embeddings, union path %d: %s", d, len(got), len(levels[d-1]), diffSample(got, levels[d-1]))
		}
		n, err := e.ExpandCount(bgCtx, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if n != counts[d-1] {
			t.Fatalf("depth %d: ExpandCount %d, union path %d", d, n, counts[d-1])
		}
		if st := e.LevelStats()[d-1]; st.MemParts > 0 && st.DiskParts > 0 {
			mixed = true
		}
	}
	if _, err := e.ExpandCount(bgCtx, allOnesFilter, nil); err == nil || !strings.Contains(err.Error(), "no user filter") {
		t.Fatalf("filtered clique expansion returned %v", err)
	}
	return continuations, mixed
}

// checkCliqueLeaves replays the clique state on every stored embedding of
// levels, recomputing the prefix from scratch: each leaf's children must be
// exactly the next level's group under it.
func checkCliqueLeaves(t *testing.T, g *graph.Graph, levels [][][]uint32) {
	t.Helper()
	for d := 1; d < len(levels); d++ {
		st := newCliqueState(g, d)
		next := levels[d]
		for _, emb := range levels[d-1] {
			if d > 1 {
				st.updatePrefix(emb, 1, d)
			}
			for _, c := range st.appendLeaf(d, emb[d-1], nil) {
				if len(next) == 0 || fmt.Sprint(next[0][:d]) != fmt.Sprint(emb) || next[0][d] != c {
					t.Fatalf("depth %d: %v child %d is not the next stored embedding", d, emb, c)
				}
				next = next[1:]
			}
		}
		if len(next) != 0 {
			t.Fatalf("depth %d: %d stored embeddings no leaf produced", d+1, len(next))
		}
	}
}
