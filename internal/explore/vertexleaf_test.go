package explore

// The vertex-induced leaf against the Definition-2 reference: the prefix is
// filtered once per run (keep list + stamps, vertexState.updatePrefix) and a
// leaf merges only its own neighbor list with it, so every level, count and
// adjacency mask must still be exactly what refExpandVertex and refAdjMask
// produce — on every storage regime, at every thread count, and across the
// block-seam continuation runs that keep the run's keep list and stamps.

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"kaleido/internal/graph"
	"kaleido/internal/run"
)

func TestVertexLeafMatchesReference(t *testing.T) {
	const maxDepth = 5
	rng := rand.New(rand.NewSource(31))
	for _, hubThreshold := range []int{-1, 8} { // hub bitset rows off / on
		for _, relabel := range []bool{false, true} {
			// plantedGraph in two densities: unfiltered levels grow too fast
			// on cliqueGraph's, so the nil filter and the adj sink run on a
			// sparser graph, and the clique levels on a denser one, whose
			// levels 2 and 3 span several decoded blocks in the all-disk
			// regime.
			sparse := plantedGraph(t, rng, plantedShape{n: 400, edges: 500, hubDeg: 12, clique: 5}, hubThreshold, relabel)
			dense := plantedGraph(t, rng, plantedShape{n: 400, edges: 8000, hubDeg: 150, clique: 9}, hubThreshold, relabel)
			for _, use := range []struct {
				name string
				g    *graph.Graph
				vf   VertexFilter
			}{{"nofilter", sparse, nil}, {"maskfilter", dense, allOnesFilter}} {
				// One level past maxDepth: ExpandCount walks the top level too.
				ref := refLevels(use.g, use.vf, maxDepth+1)
				if len(ref[maxDepth]) == 0 {
					t.Fatalf("%s: degenerate graph, no level %d", use.name, maxDepth+1)
				}
				_, _, bytes := checkLeafLevels(t, use.g, &run.Env{Threads: 1}, use.vf, ref)
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
						name := fmt.Sprintf("%s/hub%d/relabel=%v/threads%d/%s", use.name, hubThreshold, relabel, threads, rg.name)
						t.Run(name, func(t *testing.T) {
							env := &run.Env{Threads: threads}
							if rg.budget > 0 {
								env.MemoryBudget, env.SpillDir = rg.budget, t.TempDir()
							}
							continuations, mixed, _ := checkLeafLevels(t, use.g, env, use.vf, ref)
							if rg.name == "disk" && threads == 1 && continuations == 0 {
								t.Fatal("no continuation run at a block seam: the all-disk case does not exercise a kept keep list and kept stamps")
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
}

// refLevels returns the reference levels 1..maxDepth of g under vf: every
// vertex, then each level refExpandVertex of the one before, in stored
// order (parents in order, each parent's children ascending).
func refLevels(g *graph.Graph, vf VertexFilter, maxDepth int) [][][]uint32 {
	lvl := make([][]uint32, g.N())
	for v := range lvl {
		lvl[v] = []uint32{uint32(v)}
	}
	levels := [][][]uint32{lvl}
	for d := 2; d <= maxDepth; d++ {
		levels = append(levels, refExpandVertex(g, levels[d-2], vf))
	}
	return levels
}

// checkLeafLevels expands g under env and vf to depth len(ref)−1 and holds,
// at every depth, the stored level to ref in stored order and ExpandCount to
// the next level's size; with no filter, and below the top, also the
// children and masks an adj sink (ExpandVisitGroups) receives to the next
// level and refAdjMask; and then the stored level to ref once more. It reports the block-seam continuation runs of the
// levels it expanded, whether some level was split between memory and disk,
// and the CSE's resident bytes per depth.
func checkLeafLevels(t *testing.T, g *graph.Graph, env *run.Env, vf VertexFilter, ref [][][]uint32) (continuations int, mixed bool, bytes []int64) {
	t.Helper()
	e, err := New(Config{Graph: g, Mode: VertexInduced, Env: env})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.InitVertices(nil); err != nil {
		t.Fatal(err)
	}
	maxDepth := len(ref) - 1
	for d := 1; d <= maxDepth; d++ {
		if d > 1 {
			if err := e.Expand(bgCtx, vf, nil); err != nil {
				t.Fatal(err)
			}
		}
		got, c := walkLevel(t, e)
		if !embsEqual(got, ref[d-1]) {
			t.Fatalf("depth %d: %d embeddings, reference %d: %s", d, len(got), len(ref[d-1]), diffSample(got, ref[d-1]))
		}
		bytes = append(bytes, e.Bytes())
		if st := e.LevelStats()[d-1]; st.MemParts > 0 && st.DiskParts > 0 {
			mixed = true
		}
		continuations += c
		n, err := e.ExpandCount(bgCtx, vf, nil)
		if err != nil {
			t.Fatal(err)
		}
		if n != uint64(len(ref[d])) {
			t.Fatalf("depth %d: ExpandCount %d, reference %d", d, n, len(ref[d]))
		}
		if vf == nil && d < maxDepth {
			checkAdjSink(t, e, g, d, ref[d])
		}
		// The walks above reuse the workers' scratch, which the Expand that
		// stored this level wrote its children through: none of it may
		// still point into the level.
		if got, _ := walkLevel(t, e); !embsEqual(got, ref[d-1]) {
			t.Fatalf("depth %d: stored level changed by later walks: %s", d, diffSample(got, ref[d-1]))
		}
	}
	return continuations, mixed, bytes
}

// checkAdjSink expands the level of depth d into an adj sink and holds the
// children it receives to want (the reference level d+1) and every mask, the
// children's and the parent's own, to refAdjMask.
func checkAdjSink(t *testing.T, e *Explorer, g *graph.Graph, d int, want [][]uint32) {
	t.Helper()
	var mu sync.Mutex
	var got [][]uint32
	var bad string
	err := e.ExpandVisitGroups(bgCtx, nil, nil, func(_ int, emb, embAdj, children, adj []uint32) error {
		if msg := embAdjMismatch(g, emb, embAdj); msg != "" {
			mu.Lock()
			bad = msg
			mu.Unlock()
		}
		ext := make([][]uint32, len(children))
		for j, c := range children {
			ext[j] = append(append([]uint32(nil), emb...), c)
			if j >= len(adj) || adj[j] != refAdjMask(g, emb, c) {
				mu.Lock()
				bad = fmt.Sprintf("emb %v child %d: masks %b", emb, c, adj)
				mu.Unlock()
			}
		}
		mu.Lock()
		got = append(got, ext...)
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if bad != "" {
		t.Fatalf("depth %d adj sink: %s", d, bad)
	}
	want = append([][]uint32(nil), want...)
	sortEmbs(got)
	sortEmbs(want)
	if !embsEqual(got, want) {
		t.Fatalf("depth %d adj sink: %d children, reference %d: %s", d, len(got), len(want), diffSample(got, want))
	}
}

// leafGraph is the hand-built case of TestAppendCanonicalCases. For the
// prefix ⟨1, 6⟩, cands = N(1) ∪ N(6) = {1,3,4,5,6,7,8,9}; past emb[0] = 1
// every entry is stamped, and the keep list is {7, 8, 9} — 3, 4, 5 and 6
// attach at position 0 and do not exceed max(emb[1:2]) = 6.
func leafGraph(t *testing.T) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(11)
	for _, e := range [][2]uint32{
		{1, 6}, {1, 4}, {1, 3}, {1, 5}, {1, 9}, // prefix
		{6, 7}, {6, 8}, // attach at position 1: bound 0, kept
		{0, 4},  // below emb[0]
		{2, 4},  // ≤ leaf 4, not a prefix candidate: a child
		{3, 4},  // ≤ leaf 4, a prefix candidate: not a child
		{4, 5},  // > leaf 4, a prefix candidate failing its bound: dropped
		{4, 8},  // tie with a kept entry: the mask gains the leaf bit
		{4, 10}, // > leaf 4, only the leaf's: a child
	} {
		b.AddEdge(e[0], e[1])
	}
	b.SetHubThreshold(-1)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestAppendCanonicalCases(t *testing.T) {
	g := leafGraph(t)
	st := newVertexState(g, 3)
	emb := []uint32{1, 6, 0}
	st.updatePrefix(emb, 1, 3)
	if got := fmt.Sprint(st.keep.ids, st.keep.adj); got != "[7 8 9] [2 2 1]" {
		t.Fatalf("keep list %s, want [7 8 9] [2 2 1]", got)
	}
	var x expansion
	emb[2] = 4
	st.appendCanonical(3, 4, emb, 0, nil, true, &x)
	// 2 (only the leaf's, ≤ 4) sorts ahead of the kept 7; 3 and 5 are
	// stamped and dropped; 8 is a tie; 10 is only the leaf's.
	if got, want := fmt.Sprint(x.children, x.adj), "[2 7 8 9 10] [4 2 6 1 4]"; got != want {
		t.Fatalf("leaf 4: children and masks %s, want %s", got, want)
	}

	// Every leaf of the run — ascending, then once more descending, which
	// restarts the keep cursor — against the reference, under each use: the
	// store call (no filter, no masks: appendStored), an adj sink, and two
	// filters. Each leaf appends behind an earlier group already in the
	// destination, as into a part buffer, and must leave it untouched.
	leaves := []uint32{3, 4, 5, 7, 8, 9}
	for i := len(leaves) - 1; i >= 0; i-- {
		leaves = append(leaves, leaves[i])
	}
	earlier := []uint32{12, 11, 13}
	for _, use := range []struct {
		name    string
		vf      VertexFilter
		wantAdj bool
	}{
		{"store", nil, false},
		{"adjsink", nil, true},
		{"maskfilter", allOnesFilter, true},
		{"evenfilter", func(_ int, _ []uint32, c, _ uint32) bool { return c%2 == 0 }, true},
	} {
		for _, u := range leaves {
			emb[2] = u
			x.children, x.adj = append(x.children[:0], earlier...), x.adj[:0]
			if use.vf == nil && !use.wantAdj {
				x.children = st.appendStored(3, u, emb[0], x.children)
			} else {
				st.appendCanonical(3, u, emb, 0, use.vf, use.wantAdj, &x)
			}
			if got := x.children[:len(earlier)]; fmt.Sprint(got) != fmt.Sprint(earlier) {
				t.Fatalf("%s leaf %d: earlier group %v overwritten: %v", use.name, u, earlier, got)
			}
			kids := x.children[len(earlier):]
			var wantKids []uint32
			for _, c := range refExpandVertex(g, [][]uint32{append(emb[:2:2], u)}, use.vf) {
				wantKids = append(wantKids, c[3])
			}
			if fmt.Sprint(kids) != fmt.Sprint(wantKids) {
				t.Fatalf("%s leaf %d: children %v, reference %v", use.name, u, kids, wantKids)
			}
			if !use.wantAdj {
				if len(x.adj) != 0 {
					t.Fatalf("%s leaf %d: masks %v collected unasked", use.name, u, x.adj)
				}
				continue
			}
			if len(x.adj) != len(kids) {
				t.Fatalf("%s leaf %d: %d masks for %d children", use.name, u, len(x.adj), len(kids))
			}
			for j, c := range kids {
				if m := refAdjMask(g, emb, c); x.adj[j] != m {
					t.Fatalf("%s leaf %d child %d: mask %b, want %b", use.name, u, c, x.adj[j], m)
				}
			}
		}
	}

	// emb[0] = MaxUint32: nothing exceeds it, at any depth, so both leaves
	// append nothing.
	for k := 1; k <= 3; k++ {
		top := append([]uint32{^uint32(0)}, emb[1:k]...)
		x.children, x.adj = append(x.children[:0], 99), x.adj[:0]
		st.appendCanonical(k, 4, top, 0, nil, true, &x)
		x.children = st.appendStored(k, 4, top[0], x.children)
		if fmt.Sprint(x.children) != "[99]" || len(x.adj) != 0 {
			t.Fatalf("k=%d, emb[0] = MaxUint32: children %v, masks %v", k, x.children, x.adj)
		}
	}
}
