package explore

// The vertex-induced leaf against the Definition-2 reference: the prefix is
// filtered once per run (keep list + stamps, vertexState.updatePrefix) and a
// leaf merges only its own neighbor list with it — or, in the row walk,
// lists its children once as the next prefix's keep list, and each child
// corrects that list's histogram from its own neighbor list — so every
// level, count, adjacency mask and row histogram must still be exactly what
// refExpandVertex and refAdjMask produce — on every storage regime, at every
// thread count, and across the block-seam continuation runs that keep the
// run's keep list and stamps. An unfiltered level over a complete one is a
// delta level (only the children the leaf adds are stored), an unfiltered
// level over a filtered one stays plain, and both must read back as the
// reference's full groups.

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"kaleido/internal/graph"
	"kaleido/internal/run"
)

func TestVertexLeafMatchesReference(t *testing.T) {
	const maxDepth = 5
	rng := rand.New(rand.NewSource(31))
	for _, hubThreshold := range []int{-1, 8} { // hub bitset rows off / on
		for _, relabel := range []bool{false, true} {
			// plantedGraph in three densities: unfiltered levels grow too
			// fast on cliqueGraph's, so the nil filter and the row sink run
			// on a sparser graph, and the clique levels on a denser one,
			// whose levels 2 and 3 span several decoded blocks in the
			// all-disk regime. The uses with one filtered level run on a
			// graph between the two, whose plain levels 4 and 5 span
			// several decoded blocks too, unrelabelled only.
			sparse := plantedGraph(t, rng, plantedShape{n: 400, edges: 500, hubDeg: 12, clique: 5}, hubThreshold, relabel)
			dense := plantedGraph(t, rng, plantedShape{n: 400, edges: 8000, hubDeg: 150, clique: 9}, hubThreshold, relabel)
			mid := plantedGraph(t, rng, plantedShape{n: 1200, edges: 1500, hubDeg: 12, clique: 5}, hubThreshold, relabel)
			for _, use := range []struct {
				name string
				g    *graph.Graph
				vf   func(d int) VertexFilter // the filter level d is built under
				// rows is the deepest depth whose row walk is checked (the
				// deeper references are costly), seams the depths whose
				// all-disk, one-thread walk must split a group at a block
				// seam.
				rows  int
				seams []int
			}{
				// Levels 3..5 are delta levels, walked a group at a time,
				// and level 2 fits one block: no seams.
				{"nofilter", sparse, func(int) VertexFilter { return nil }, maxDepth, nil},
				// appendCanonical across seams.
				{"maskfilter", dense, func(int) VertexFilter { return allOnesFilter }, 0, []int{2, 3}},
				// Level 3 drops an eighth of its children, so level 4,
				// unfiltered over it, stays plain and level 5 is a delta
				// level again: appendOwn (building level 5), countStored
				// and the row walk across level 4's seams.
				{"filter3", mid, filterAt(3), maxDepth - 1, []int{4}},
				// Level 4 drops an eighth and level 5 over it stays plain:
				// appendStored (building level 5) and countStored across
				// level 4's seams, countStored across level 5's.
				{"filter4", mid, filterAt(4), maxDepth - 1, []int{4, 5}},
			} {
				if use.g == mid && relabel {
					continue // these uses are for the seams: one labelling suffices
				}
				// One level past maxDepth: ExpandCount walks the top level too.
				ref := refLevels(use.g, use.vf, maxDepth+1)
				if len(ref[maxDepth]) == 0 {
					t.Fatalf("%s: degenerate graph, no level %d", use.name, maxDepth+1)
				}
				var rows []*rowRef // rows[d-1]: the row walk over depth d, nil if unchecked
				if use.rows > 0 {
					// The row walk over depth d visits level d+1 and counts
					// level d+2, up to two levels past maxDepth, all
					// unfiltered: it is checked where the reference levels
					// are.
					next := slices.Clone(ref[2:])
					if use.rows == maxDepth {
						next = append(next, refExpandVertex(use.g, ref[maxDepth], nil))
					}
					for d := 1; d <= use.rows; d++ {
						var r *rowRef
						if use.vf(d+1) == nil && use.vf(d+2) == nil {
							r = newRowRef(use.g, ref[d], next[d-1])
						}
						rows = append(rows, r)
					}
				}
				_, _, bytes := checkLeafLevels(t, use.g, &run.Env{Threads: 1}, use.vf, ref, rows)
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
							continuations, mixed, _ := checkLeafLevels(t, use.g, env, use.vf, ref, rows)
							for _, d := range use.seams {
								if rg.name == "disk" && threads == 1 && continuations[d-1] == 0 {
									t.Fatalf("depth %d: no continuation run at a block seam: the all-disk case does not exercise a kept keep list and kept stamps", d)
								}
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

// filterAt builds level f under a filter that drops the candidates
// divisible by 8, and every other level unfiltered.
func filterAt(f int) func(d int) VertexFilter {
	return func(d int) VertexFilter {
		if d == f {
			return func(_ int, _ []uint32, c, _ uint32) bool { return c%8 != 0 }
		}
		return nil
	}
}

// refLevels returns the reference levels 1..maxDepth of g, level d under
// vf(d): every vertex, then each level refExpandVertex of the one before, in
// stored order (parents in order, each parent's children ascending).
func refLevels(g *graph.Graph, vf func(d int) VertexFilter, maxDepth int) [][][]uint32 {
	lvl := make([][]uint32, g.N())
	for v := range lvl {
		lvl[v] = []uint32{uint32(v)}
	}
	levels := [][][]uint32{lvl}
	for d := 2; d <= maxDepth; d++ {
		levels = append(levels, refExpandVertex(g, levels[d-2], vf(d)))
	}
	return levels
}

// checkLeafLevels expands g under env to depth len(ref)−1, level d under
// vf(d), and holds, at every depth, the stored level to ref in stored order,
// its delta bit to the rule (unfiltered over an unfiltered level past the
// base) and ExpandCount to the next level's size; where the row walks'
// references are given (rows[d-1], unfiltered levels), also the masks and
// row histograms a row visitor (ExpandVisitGroups) receives (checkRows); and
// then the stored level to ref once more. It reports, per depth, the
// block-seam continuation runs of a walk over the level; whether some level
// was split between memory and disk; and the CSE's resident bytes per depth.
func checkLeafLevels(t *testing.T, g *graph.Graph, env *run.Env, vf func(d int) VertexFilter, ref [][][]uint32, rows []*rowRef) (continuations []int, mixed bool, bytes []int64) {
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
			if err := e.Expand(bgCtx, vf(d), nil); err != nil {
				t.Fatal(err)
			}
		}
		if want := d >= 3 && vf(d) == nil && vf(d-1) == nil; e.CSE().Top().Delta() != want {
			t.Fatalf("depth %d: delta level %v, want %v", d, e.CSE().Top().Delta(), want)
		}
		got, c := walkLevel(t, e)
		if !embsEqual(got, ref[d-1]) {
			t.Fatalf("depth %d: %d embeddings, reference %d: %s", d, len(got), len(ref[d-1]), diffSample(got, ref[d-1]))
		}
		bytes = append(bytes, e.Bytes())
		if st := e.LevelStats()[d-1]; st.MemParts > 0 && st.DiskParts > 0 {
			mixed = true
		}
		continuations = append(continuations, c)
		n, err := e.ExpandCount(bgCtx, vf(d+1), nil)
		if err != nil {
			t.Fatal(err)
		}
		if n != uint64(len(ref[d])) {
			t.Fatalf("depth %d: ExpandCount %d, reference %d", d, n, len(ref[d]))
		}
		if d <= len(rows) && rows[d-1] != nil {
			checkRows(t, e, g, d, rows[d-1])
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
	st := newVertexState(g, 4)
	emb := []uint32{1, 6, 0}
	st.updatePrefix(emb, 1, 3)
	if got := fmt.Sprint(st.keep.ids, st.keep.adj); got != "[7 8 9] [2 2 1]" {
		t.Fatalf("keep list %s, want [7 8 9] [2 2 1]", got)
	}
	var masks []uint32
	admit := func(_ int, _ []uint32, _, adj uint32) bool {
		masks = append(masks, adj)
		return true
	}
	emb[2] = 4
	kids := st.appendCanonical(3, 4, emb, 0, admit, nil)
	// 2 (only the leaf's, ≤ 4) sorts ahead of the kept 7; 3 and 5 are
	// stamped and dropped; 8 is a tie; 10 is only the leaf's.
	if got, want := fmt.Sprint(kids, masks), "[2 7 8 9 10] [4 2 6 1 4]"; got != want {
		t.Fatalf("leaf 4: children and masks %s, want %s", got, want)
	}
	// The same children as the row walk's child list, with the same masks,
	// and their histogram: two with mask 4 (2 and 10), one each with 1, 2
	// and 6. Leaf 4 is not kept (it attaches at 0, below 6), so its own
	// mask, 1, comes from the candidate set.
	self := st.childList(3, 4, emb[0])
	if got, want := fmt.Sprint(st.kids.ids, st.kids.adj, st.hist), "[2 7 8 9 10] [4 2 6 1 4] [0 1 1 0 2 0 1 0]"; self != 1 || got != want {
		t.Fatalf("leaf 4: child list %s, own mask %b, want %s and 1", got, self, want)
	}
	st.unstamp(3)
	rows := make([]uint32, 16)

	// Every leaf of the run — ascending, then once more descending, which
	// restarts the keep cursor — against the reference, under each use: the
	// store call (no filter: appendStored), the row walk (childList, then
	// countRows for each child), and two filters. Each leaf appends behind
	// an earlier group already in the destination, as into a part buffer,
	// and must leave it untouched.
	leaves := []uint32{3, 4, 5, 7, 8, 9}
	for i := len(leaves) - 1; i >= 0; i-- {
		leaves = append(leaves, leaves[i])
	}
	earlier := []uint32{12, 11, 13}
	for _, use := range []struct {
		name string
		vf   VertexFilter
	}{
		{"store", nil},
		{"rows", nil},
		{"maskfilter", allOnesFilter},
		{"evenfilter", func(_ int, _ []uint32, c, _ uint32) bool { return c%2 == 0 }},
	} {
		for _, u := range leaves {
			emb[2] = u
			var wantKids []uint32
			for _, c := range refExpandVertex(g, [][]uint32{append(emb[:2:2], u)}, use.vf) {
				wantKids = append(wantKids, c[3])
			}
			if use.name == "rows" {
				if msg := checkChildRows(g, st, emb, rows); msg != "" {
					t.Fatalf("leaf %d: %s", u, msg)
				}
				continue
			}
			kids := append([]uint32(nil), earlier...)
			if use.vf == nil {
				kids = st.appendStored(3, u, emb[0], kids)
			} else {
				kids = st.appendCanonical(3, u, emb, 0, use.vf, kids)
			}
			if got := kids[:len(earlier)]; fmt.Sprint(got) != fmt.Sprint(earlier) {
				t.Fatalf("%s leaf %d: earlier group %v overwritten: %v", use.name, u, earlier, got)
			}
			if got := kids[len(earlier):]; fmt.Sprint(got) != fmt.Sprint(wantKids) {
				t.Fatalf("%s leaf %d: children %v, reference %v", use.name, u, got, wantKids)
			}
		}
	}

	// emb[0] = MaxUint32: nothing exceeds it, at any depth, so both merging
	// leaves append nothing.
	for k := 1; k <= 3; k++ {
		top := append([]uint32{^uint32(0)}, emb[1:k]...)
		kids := st.appendCanonical(k, 4, top, 0, admit, []uint32{99})
		kids = st.appendStored(k, 4, top[0], kids)
		if fmt.Sprint(kids) != "[99]" {
			t.Fatalf("k=%d, emb[0] = MaxUint32: children %v", k, kids)
		}
	}
}

// checkChildRows runs the row walk's leaf on emb, leaf emb[len(emb)-1], as
// expandLeafRows does — childList, countRows for each child in order,
// unstamp — and describes the first of its outputs that differs from the
// reference, or returns "": the leaf's own mask, its child list (ids and
// masks) and histogram, and each child's own mask and rows. The caller has
// run updatePrefix for the prefix emb[:len(emb)-1] when len(emb) ≥ 2.
func checkChildRows(g *graph.Graph, st *vertexState, emb, rows []uint32) string {
	d := len(emb)
	defer st.unstamp(d)
	if self := st.childList(d, emb[d-1], emb[0]); self != refAdjMask(g, emb[:d-1], emb[d-1]) {
		return fmt.Sprintf("emb %v: own mask %b, want %b", emb, self, refAdjMask(g, emb[:d-1], emb[d-1]))
	}
	kids := refExpandVertex(g, [][]uint32{emb}, nil)
	hist := make([]uint32, 1<<d)
	var ids, adj []uint32
	for _, c := range kids {
		ids, adj = append(ids, c[d]), append(adj, refAdjMask(g, emb, c[d]))
		hist[adj[len(adj)-1]]++
	}
	if fmt.Sprint(st.kids.ids, st.kids.adj, st.hist) != fmt.Sprint(ids, adj, hist) {
		return fmt.Sprintf("emb %v: child list %v %v histogram %v, want %v %v %v", emb, st.kids.ids, st.kids.adj, st.hist, ids, adj, hist)
	}
	// The reference rows of kids[i] are want[i].
	find := func(p []uint32) int {
		return slices.IndexFunc(kids, func(c []uint32) bool { return slices.Equal(c, p) })
	}
	want := refRows(g, find, len(kids), refExpandVertex(g, kids, nil))
	for t, c := range kids {
		if self := st.countRows(d+1, t, emb[0], rows[:2<<d]); self != adj[t] {
			return fmt.Sprintf("emb %v: own mask %b, want %b", c, self, adj[t])
		}
		if msg := rowsMismatch(c, rows[:2<<d], want[t]); msg != "" {
			return msg
		}
	}
	return ""
}

// TestCountRowsAnyLeafOrder runs the row walk's leaf on the stored leaves of
// every group of a level in shuffled order, so the keep cursor moves
// backwards over and over: every leaf's own mask, child list and histogram,
// and every child's own mask and rows, must still be the reference's, at
// leaf depths 1 to 4, with hub rows on and off. A leaf's stamps on the
// prefix marker must be gone before the next leaf, whatever its order.
func TestCountRowsAnyLeafOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	restarts := 0
	for _, hubThreshold := range []int{-1, 4} {
		g := hubGraph(t, rng, 40, 60, 2, 18, hubThreshold)
		e := newVertexExplorer(t, g, 1)
		for d := 1; d <= 4; d++ {
			if d > 1 {
				if err := e.Expand(bgCtx, nil, nil); err != nil {
					t.Fatal(err)
				}
			}
			level := collect(t, e)
			st := newVertexState(g, d+1)
			rows := make([]uint32, 2<<d)
			for lo := 0; lo < len(level); {
				hi := lo + 1
				for hi < len(level) && slices.Equal(level[hi][:d-1], level[lo][:d-1]) {
					hi++
				}
				emb := slices.Clone(level[lo])
				if d > 1 {
					st.updatePrefix(emb, 1, d)
				}
				for _, i := range rng.Perm(hi - lo) {
					v := level[lo+i][d-1]
					if d > 1 && st.at > 0 && st.keep.ids[st.at-1] > v {
						restarts++
					}
					emb[d-1] = v
					if msg := checkChildRows(g, st, emb, rows); msg != "" {
						t.Fatalf("hub%d d=%d: %s", hubThreshold, d, msg)
					}
				}
				lo = hi
			}
		}
	}
	if restarts == 0 {
		t.Fatal("no leaf restarted the keep cursor")
	}
}
