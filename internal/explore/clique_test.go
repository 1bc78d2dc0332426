package explore

// Clique mode against the union path it replaces for cliques: VertexInduced
// plus the all-ones mask filter stores exactly the strictly increasing
// cliques, and Clique mode grows each clique toward lower ids, so every level
// a Clique run stores must be the union path's level with every embedding
// reversed, and every count the same, on every storage regime.

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
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

// levelRun is what one explorer stored and counted, depth by depth:
// levels[d-1] is the level of depth d in stored order, counts[d-1] what
// ExpandCount reports there, counts2[d-1] what ExpandCountTwo reports there
// (Clique mode) and bytes[d-1] the CSE's resident bytes at depth d.
type levelRun struct {
	levels        [][][]uint32
	counts        []uint64
	counts2       []uint64
	bytes         []int64
	continuations int  // block-seam continuation runs walked
	mixed         bool // some level split between memory and disk
	moved         int  // interior chunk bounds Clique mode moved to a group start
	emptied       int  // chunks those moves left empty: a group outgrew a chunk
	moved2        int  // moved, of the two-level counts' walks
}

// boundsSink records the chunk bounds of the walk whose sink it wraps.
type boundsSink struct {
	ExpandSink
	bounds []int
}

func (s *boundsSink) begin(e *Explorer, top *storage.HybridLevel, bounds []int) error {
	s.bounds = slices.Clone(bounds)
	return s.ExpandSink.begin(e, top, bounds)
}

// checkGroupBounds fails unless every chunk bound of a walk over lvl, a
// level of depth d in stored order, is a group start — an end of the level
// or an index whose prefix differs from its predecessor's — and returns how
// many interior bounds differ from the even partition they were cut from and
// how many of its non-empty chunks they left empty.
func checkGroupBounds(t *testing.T, lvl [][]uint32, d int, bounds []int) (moved, emptied int) {
	t.Helper()
	even := partitionEven(len(lvl), len(bounds)-1)
	for i, b := range bounds {
		if b > 0 && b < len(lvl) && slices.Equal(lvl[b][:d-1], lvl[b-1][:d-1]) {
			t.Fatalf("depth %d: chunk bound %d (%v) splits the group of %v", d, b, bounds, lvl[b][:d-1])
		}
		if b != even[i] {
			moved++
		}
		if i > 0 && b == bounds[i-1] && even[i] > even[i-1] {
			emptied++
		}
	}
	return moved, emptied
}

// runLevels expands e, which holds level 1, to maxDepth under vf and records
// every level. In Clique mode it also counts two levels past every depth
// d, which must be ExpandCount's count at depth d+1, and checks that every
// expansion's and every two-level count's walk was cut on group starts.
func runLevels(t *testing.T, e *Explorer, maxDepth int, vf VertexFilter) levelRun {
	t.Helper()
	var r levelRun
	for d := 1; d <= maxDepth; d++ {
		if d > 1 {
			rec := boundsSink{ExpandSink: &e.store}
			if err := e.ExpandTo(bgCtx, &rec, vf, nil); err != nil {
				t.Fatal(err)
			}
			if e.cfg.Mode == Clique && d > 2 {
				moved, emptied := checkGroupBounds(t, r.levels[d-2], d-1, rec.bounds)
				r.moved, r.emptied = r.moved+moved, r.emptied+emptied
			}
		}
		lvl, c := walkLevel(t, e)
		n, err := e.ExpandCount(bgCtx, vf, nil)
		if err != nil {
			t.Fatal(err)
		}
		r.levels, r.counts, r.bytes = append(r.levels, lvl), append(r.counts, n), append(r.bytes, e.Bytes())
		r.continuations += c
		if st := e.LevelStats()[d-1]; st.MemParts > 0 && st.DiskParts > 0 {
			r.mixed = true
		}
		if e.cfg.Mode == Clique {
			rec := boundsSink{ExpandSink: &CountSink{two: true}}
			if err := e.ExpandTo(bgCtx, &rec, nil, nil); err != nil {
				t.Fatal(err)
			}
			if d > 1 {
				moved, _ := checkGroupBounds(t, lvl, d, rec.bounds)
				r.moved2 += moved
			}
			r.counts2 = append(r.counts2, rec.ExpandSink.(*CountSink).Total())
			if d > 1 && r.counts2[d-2] != n {
				t.Fatalf("depth %d: two-level count %d, ExpandCount at depth %d: %d", d-1, r.counts2[d-2], d, n)
			}
		}
	}
	return r
}

// runClique runs Clique mode under env to maxDepth, and checks that it
// refuses a user filter, leaving the top level as it was.
func runClique(t *testing.T, g *graph.Graph, env *run.Env, maxDepth int) levelRun {
	t.Helper()
	e, err := New(Config{Graph: g, Mode: Clique, Env: env})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.InitVertices(nil); err != nil {
		t.Fatal(err)
	}
	r := runLevels(t, e, maxDepth, nil)
	if _, err := e.ExpandCount(bgCtx, allOnesFilter, nil); err == nil || !strings.Contains(err.Error(), "no user filter") {
		t.Fatalf("filtered clique expansion returned %v", err)
	}
	if top, _ := walkLevel(t, e); !embsEqual(top, r.levels[maxDepth-1]) {
		t.Fatalf("refused filter changed the top level: %s", diffSample(top, r.levels[maxDepth-1]))
	}
	return r
}

func TestCliqueModeMatchesMaskFilter(t *testing.T) {
	const maxDepth = 6
	rng := rand.New(rand.NewSource(25))
	for _, hubThreshold := range []int{-1, 8} { // hub bitset rows off / on
		for _, relabel := range []bool{false, true} {
			g := cliqueGraph(t, rng, hubThreshold, relabel)
			union := runLevels(t, newVertexExplorer(t, g, 2), maxDepth, allOnesFilter)
			if union.counts[maxDepth-1] == 0 {
				t.Fatalf("degenerate graph: no %d-cliques", maxDepth+1)
			}
			bytes := runClique(t, g, &run.Env{Threads: 1}, 2).bytes
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
						got := runClique(t, g, env, maxDepth)
						checkAgainstUnion(t, got, union)
						checkCliqueLeaves(t, g, got.levels)
						if rg.name == "disk" && threads == 1 && got.continuations == 0 {
							t.Fatal("no continuation run at a block seam: the all-disk case does not exercise kept stamps")
						}
						if rg.name == "hybrid" && !got.mixed {
							t.Fatal("no level with both memory and disk parts")
						}
						if threads > 1 && got.moved == 0 {
							t.Fatal("no interior chunk bound was moved: no walk would have started mid-group")
						}
					})
				}
			}
		}
	}
}

// checkAgainstUnion holds a Clique-mode run to the union path's: every
// stored embedding strictly decreasing, the children of every group
// ascending, every level with each embedding reversed the union path's
// level as a set with no duplicates, and every ExpandCount the union path's.
func checkAgainstUnion(t *testing.T, got, union levelRun) {
	t.Helper()
	for i, lvl := range got.levels {
		d := i + 1
		for j, emb := range lvl {
			for l := 1; l < d; l++ {
				if emb[l] >= emb[l-1] {
					t.Fatalf("depth %d: %v is not strictly decreasing", d, emb)
				}
			}
			if j == 0 {
				continue
			}
			if prev := lvl[j-1]; slices.Equal(prev[:d-1], emb[:d-1]) && prev[d-1] >= emb[d-1] {
				t.Fatalf("depth %d: children %d, %d of %v do not ascend", d, prev[d-1], emb[d-1], emb[:d-1])
			}
		}
		rev := make([][]uint32, len(lvl))
		for j, emb := range lvl {
			rev[j] = slices.Clone(emb)
			slices.Reverse(rev[j])
		}
		slices.SortFunc(rev, slices.Compare[[]uint32])
		want := slices.Clone(union.levels[i])
		slices.SortFunc(want, slices.Compare[[]uint32])
		for j := 1; j < len(rev); j++ {
			if slices.Equal(rev[j-1], rev[j]) {
				t.Fatalf("depth %d: %v stored twice", d, rev[j])
			}
		}
		if !embsEqual(rev, want) {
			t.Fatalf("depth %d: %d embeddings, union path %d: %s", d, len(rev), len(want), diffSample(rev, want))
		}
		if got.counts[i] != union.counts[i] {
			t.Fatalf("depth %d: ExpandCount %d, union path %d", d, got.counts[i], union.counts[i])
		}
	}
}

// checkCliqueLeaves recomputes, for every embedding a Clique run stored,
// its common below-neighbours Below(v1) ∩ … ∩ Below(vd) from scratch: they
// must be exactly the next level's group under it, in stored order.
func checkCliqueLeaves(t *testing.T, g *graph.Graph, levels [][][]uint32) {
	t.Helper()
	for d := 1; d < len(levels); d++ {
		next := levels[d]
		for _, emb := range levels[d-1] {
			for _, c := range commonBelow(g, emb) {
				if len(next) == 0 || !slices.Equal(next[0][:d], emb) || next[0][d] != c {
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

// commonBelow returns the ascending vertices below every vertex of emb and
// adjacent to all of them.
func commonBelow(g *graph.Graph, emb []uint32) []uint32 {
	common := slices.Clone(g.Below(emb[0]))
	for _, v := range emb[1:] {
		common = slices.DeleteFunc(common, func(w uint32) bool {
			_, ok := slices.BinarySearch(g.Below(v), w)
			return !ok
		})
	}
	return common
}

// TestCliqueWalksStartAtGroups plants a 30-clique in a sparse random graph,
// so the groups of its cliques are longer than a chunk, and checks at every
// thread count, unbudgeted and all-disk (where the bounds are found through
// the disk parts' ParentOf), that the chunk bounds of every expansion and
// every two-level count are group starts and that the k-clique counts,
// k = 3..6 — ExpandCount at depth k−1 and ExpandCountTwo at depth k−2, as
// CliqueCount(k) runs it — are the counts of an adjacency matrix search.
func TestCliqueWalksStartAtGroups(t *testing.T) {
	const n, maxK = 150, 6
	rng := rand.New(rand.NewSource(61))
	adj := make([][]bool, n)
	for u := range adj {
		adj[u] = make([]bool, n)
	}
	b := graph.NewBuilder(n)
	addEdge := func(u, v int) {
		if u != v {
			adj[u][v], adj[v][u] = true, true
			b.AddEdge(uint32(u), uint32(v))
		}
	}
	for i := 0; i < 2*n; i++ {
		addEdge(rng.Intn(n), rng.Intn(n))
	}
	members := rng.Perm(n)[:30]
	for i, u := range members {
		for _, v := range members[i+1:] {
			addEdge(u, v)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	want := matrixCliques(adj, maxK)

	for _, disk := range []bool{false, true} {
		for _, threads := range []int{1, 2, 4, 8} {
			t.Run(fmt.Sprintf("disk=%v/threads%d", disk, threads), func(t *testing.T) {
				env := &run.Env{Threads: threads}
				if disk {
					env.MemoryBudget, env.SpillDir = 1, t.TempDir()
				}
				e, err := New(Config{Graph: g, Mode: Clique, Env: env})
				if err != nil {
					t.Fatal(err)
				}
				defer e.Close()
				if err := e.InitVertices(nil); err != nil {
					t.Fatal(err)
				}
				r := runLevels(t, e, maxK-1, nil)
				for k := 3; k <= maxK; k++ {
					if got := r.counts[k-2]; got != want[k] {
						t.Fatalf("ExpandCount at depth %d = %d, oracle %d", k-1, got, want[k])
					}
					if got := r.counts2[k-3]; got != want[k] {
						t.Fatalf("CliqueCount(%d) = %d, oracle %d", k, got, want[k])
					}
				}
				if disk && e.LevelStats()[maxK-2].MemParts > 0 {
					t.Fatal("all-disk run kept a part of the top level in memory")
				}
				if threads > 1 && r.moved == 0 {
					t.Fatal("no interior chunk bound was moved")
				}
				if threads > 1 && r.moved2 == 0 {
					t.Fatal("no interior chunk bound of a two-level count was moved")
				}
				if !disk && threads == 8 && r.emptied == 0 {
					t.Fatal("no chunk was emptied: no group outgrew a chunk")
				}
			})
		}
	}
}

// matrixCliques returns want[k], the number of k-cliques of the graph with
// adjacency matrix adj for k ≤ maxK: vertex sets grown in ascending order,
// each new vertex adjacent to every one before it.
func matrixCliques(adj [][]bool, maxK int) []uint64 {
	want := make([]uint64, maxK+1)
	set := make([]int, 0, maxK)
	var grow func(start int)
	grow = func(start int) {
		want[len(set)]++
		if len(set) == maxK {
			return
		}
	next:
		for v := start; v < len(adj); v++ {
			for _, u := range set {
				if !adj[u][v] {
					continue next
				}
			}
			set = append(set, v)
			grow(v + 1)
			set = set[:len(set)-1]
		}
	}
	grow(0)
	return want
}

// wideCount is what countCliques saw of one Clique run.
type wideCount struct {
	counts    []uint64 // counts[k]: the k-cliques, k = 3..maxK
	wideSeams int      // block-seam continuation runs inside groups of more than 64 leaves
	wrapped   bool     // some worker's position stamp wrapped and restarted
}

// countCliques counts the k-cliques of g for k = 3..maxK as CliqueCount(k)
// does — ExpandCountTwo over the stored level k−2 — and walks each stored
// level for the block-seam continuation runs that fall inside a group of
// more than one row word. A wrapAt other than 0 starts every worker's
// position stamp at the top of its range and lowers the position past which
// a group clears the stamps and restarts them to wrapAt.
func countCliques(t *testing.T, g *graph.Graph, env *run.Env, maxK int, wrapAt uint32) wideCount {
	t.Helper()
	e, err := New(Config{Graph: g, Mode: Clique, Env: env})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.InitVertices(nil); err != nil {
		t.Fatal(err)
	}
	if wrapAt != 0 {
		for w := range e.scratch {
			// Start at the top of the stamp range, and wrap every time the
			// positions pass wrapAt: each wrap leaves the stamps of the
			// groups before it in the range the next groups take, which only
			// the clear at the wrap keeps from reading as their leaves.
			c := e.cliqueFor(w, false)
			c.pos, c.top = math.MaxUint32, wrapAt
		}
	}
	r := wideCount{counts: make([]uint64, maxK+1)}
	for k := 3; k <= maxK; k++ {
		for e.Depth() < k-2 {
			if err := e.Expand(bgCtx, nil, nil); err != nil {
				t.Fatal(err)
			}
			r.wideSeams += wideSeams(t, e)
		}
		n, err := e.ExpandCountTwo(bgCtx)
		if err != nil {
			t.Fatal(err)
		}
		r.counts[k] = n
	}
	for w := range e.scratch {
		if c := e.scratch[w].clique; wrapAt != 0 && c != nil && c.pos < math.MaxUint32 {
			r.wrapped = true
		}
	}
	return r
}

// wideSeams walks the top level of e and returns how many of its block-seam
// continuation runs fall inside a group of more than 64 leaves.
func wideSeams(t *testing.T, e *Explorer) int {
	t.Helper()
	d := e.Depth()
	w, err := storage.NewWalker(e.CSE(), 0, e.Count())
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	seams, size, cont := 0, 0, 0
	end := func() {
		if size > 64 {
			seams += cont
		}
	}
	for {
		_, from, leaves, ok := w.NextRun()
		if !ok {
			break
		}
		if from < d {
			end()
			size, cont = 0, 0
		} else if size > 0 {
			cont++
		}
		size += len(leaves)
	}
	end()
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	return seams
}

// TestCliqueWalksWideGroups counts cliques on graphs whose groups outgrow
// one row word: K_70 and K_130 (rows of 2 and 3 words), where the k-cliques
// number C(n, k), and a 70-clique planted in a sparse 200-vertex graph, which
// mixes one- and two-word groups, held to the adjacency matrix search — at
// every thread count, unbudgeted and all-disk, where on the complete graphs
// some continuation run must fall inside a group of more than 64 leaves, so
// the rows carry over a block seam. One more run starts every position stamp near the top of its
// range, so the stamps wrap, clear and restart mid-walk.
func TestCliqueWalksWideGroups(t *testing.T) {
	complete := func(n int) (*graph.Graph, [][]bool) {
		b := graph.NewBuilder(n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				b.AddEdge(uint32(u), uint32(v))
			}
		}
		g, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return g, nil
	}
	planted := func() (*graph.Graph, [][]bool) {
		const n = 200
		rng := rand.New(rand.NewSource(70))
		adj := make([][]bool, n)
		for u := range adj {
			adj[u] = make([]bool, n)
		}
		b := graph.NewBuilder(n)
		addEdge := func(u, v int) {
			if u != v {
				adj[u][v], adj[v][u] = true, true
				b.AddEdge(uint32(u), uint32(v))
			}
		}
		for i := 0; i < 3*n; i++ {
			addEdge(rng.Intn(n), rng.Intn(n))
		}
		members := rng.Perm(n)[:70]
		for i, u := range members {
			for _, v := range members[i+1:] {
				addEdge(u, v)
			}
		}
		g, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		if g, err = graph.Relabel(g); err != nil {
			t.Fatal(err)
		}
		return g, adj
	}
	binom := func(n, k int) uint64 {
		c := uint64(1)
		for i := 0; i < k; i++ {
			c = c * uint64(n-i) / uint64(i+1)
		}
		return c
	}
	wideSeams := map[string]int{} // of the all-disk runs, per graph
	for _, c := range []struct {
		name  string
		build func() (*graph.Graph, [][]bool)
		maxK  int
	}{
		{"K70", func() (*graph.Graph, [][]bool) { return complete(70) }, 5},
		{"K130", func() (*graph.Graph, [][]bool) { return complete(130) }, 5},
		{"planted70", planted, 4},
	} {
		g, adj := c.build()
		want := make([]uint64, c.maxK+1)
		if adj != nil {
			want = matrixCliques(adj, c.maxK)
		} else {
			for k := 3; k <= c.maxK; k++ {
				want[k] = binom(g.N(), k)
			}
		}
		words := (g.MaxBelow() + 63) / 64
		if words < 2 {
			t.Fatalf("%s: widest group %d fits one row word", c.name, g.MaxBelow())
		}
		check := func(t *testing.T, got wideCount) {
			t.Helper()
			for k := 3; k <= c.maxK; k++ {
				if got.counts[k] != want[k] {
					t.Fatalf("CliqueCount(%d) = %d, want %d", k, got.counts[k], want[k])
				}
			}
		}
		for _, disk := range []bool{false, true} {
			for _, threads := range []int{1, 2, 4, 8} {
				t.Run(fmt.Sprintf("%s/disk=%v/threads%d", c.name, disk, threads), func(t *testing.T) {
					env := &run.Env{Threads: threads}
					if disk {
						env.MemoryBudget, env.SpillDir = 1, t.TempDir()
					}
					got := countCliques(t, g, env, c.maxK, 0)
					check(t, got)
					if disk {
						wideSeams[c.name] += got.wideSeams
					}
				})
			}
		}
		t.Run(c.name+"/stamp-wrap", func(t *testing.T) {
			got := countCliques(t, g, &run.Env{Threads: 2}, c.maxK, uint32(2*g.MaxBelow()))
			check(t, got)
			if !got.wrapped {
				t.Fatal("no position stamp wrapped")
			}
		})
	}
	// The planted graph stores too little for a block seam; the complete
	// graphs' levels 2 and 3 span several blocks.
	if wideSeams["K70"] == 0 || wideSeams["K130"] == 0 {
		t.Fatalf("continuation runs inside groups of more than 64 leaves, all-disk: %v", wideSeams)
	}
}
