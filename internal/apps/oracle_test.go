package apps

// An oracle that is not us: the existing brute-force checks fill patterns
// with this package's own fillVertices and ask the graph's own HasEdge, so a
// bug in either is invisible to them. This one enumerates vertex subsets over
// a plain adjacency matrix built from the edge pairs before any Builder sees
// them, and names shapes by (edge count, degree sequence) — enough to tell
// all connected graphs on 3 and 4 vertices apart — without the pattern, iso
// or graph packages. For FSM it enumerates edge subsets of the same edge
// pairs and names labelled patterns by a canonical form found by trying every
// vertex order.

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"kaleido/internal/graph"
	"kaleido/internal/run"
)

type adjMatrix [12][12]bool

// subsets calls visit with every k-subset of [0, n), ascending.
func subsets(n, k int, visit func(set []int)) {
	set := make([]int, 0, k)
	var rec func(start int)
	rec = func(start int) {
		if len(set) == k {
			visit(set)
			return
		}
		for v := start; v < n; v++ {
			set = append(set, v)
			rec(v + 1)
			set = set[:len(set)-1]
		}
	}
	rec(0)
}

// shapeKey names a small graph by its edge count and sorted degree sequence.
func shapeKey(edges int, deg []int) string {
	sort.Ints(deg)
	return fmt.Sprint(edges, ":", deg)
}

// induced returns the edge count and degrees of the subgraph induced by set,
// and whether it is connected.
func (a *adjMatrix) induced(set []int) (edges int, deg []int, connected bool) {
	deg = make([]int, len(set))
	for i, u := range set {
		for j, v := range set {
			if i < j && a[u][v] {
				deg[i]++
				deg[j]++
				edges++
			}
		}
	}
	reached := []int{0}
	seen := map[int]bool{0: true}
	for len(reached) > 0 {
		i := reached[0]
		reached = reached[1:]
		for j := range set {
			if !seen[j] && a[set[i]][set[j]] {
				seen[j] = true
				reached = append(reached, j)
			}
		}
	}
	return edges, deg, len(seen) == len(set)
}

func TestCountsMatchSubsetOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 6; trial++ {
		n := 7 + rng.Intn(6)
		var adj adjMatrix
		b := graph.NewBuilder(n)
		for i, m := 0, n+rng.Intn(3*n); i < m; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				adj[u][v], adj[v][u] = true, true
				b.AddEdge(uint32(u), uint32(v))
			}
		}
		g, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}

		wantCliques := map[int]uint64{}
		for k := 2; k <= 6; k++ {
			subsets(n, k, func(set []int) {
				if edges, _, _ := adj.induced(set); edges == k*(k-1)/2 {
					wantCliques[k]++
				}
			})
		}
		wantMotifs := map[int]map[string]uint64{3: {}, 4: {}}
		for k := range wantMotifs {
			subsets(n, k, func(set []int) {
				if edges, deg, connected := adj.induced(set); connected {
					wantMotifs[k][shapeKey(edges, deg)]++
				}
			})
		}

		for _, threads := range []int{1, 2, 4} {
			for _, budget := range []int64{0, 1} {
				env := func() *run.Env {
					e := &run.Env{Threads: threads, MemoryBudget: budget}
					if budget > 0 {
						e.SpillDir = t.TempDir()
					}
					return e
				}
				for k := 2; k <= 6; k++ {
					got, err := CliqueCount(bgCtx, g, k, env())
					if err != nil {
						t.Fatal(err)
					}
					if got != wantCliques[k] {
						t.Errorf("trial %d threads %d budget %d: %d-cliques = %d, oracle %d", trial, threads, budget, k, got, wantCliques[k])
					}
				}
				for k, want := range wantMotifs {
					res, err := MotifCount(bgCtx, g, k, env())
					if err != nil {
						t.Fatal(err)
					}
					got := map[string]uint64{}
					for _, pc := range res {
						deg := make([]int, k)
						for i := range deg {
							deg[i] = int(pc.Pattern.Deg[i])
						}
						got[shapeKey(pc.Pattern.Edges(), deg)] += pc.Count
					}
					if len(res) != len(want) || !reflect.DeepEqual(got, want) {
						t.Errorf("trial %d threads %d budget %d: %d-motifs = %v, oracle %v", trial, threads, budget, k, got, want)
					}
				}
			}
		}
	}
}

// canonicalForm renders a labelled pattern on len(labels) ≤ 4 vertices as the
// smallest (labels, adjacency bits) string over every vertex order, and
// returns every order that attains it: order[i] is the pattern vertex at
// canonical position i, so each order is an isomorphism from the canonical
// pattern onto this one (on the canonical pattern itself, its automorphisms).
func canonicalForm(labels []int, adj func(i, j int) bool) (key string, orders [][]int) {
	n := len(labels)
	var order []int
	var rec func(used int)
	rec = func(used int) {
		if len(order) == n {
			b := make([]byte, 0, n+n*(n-1)/2)
			for _, v := range order {
				b = append(b, byte('a'+labels[v]))
			}
			for i := range order {
				for j := i + 1; j < n; j++ {
					b = append(b, '0')
					if adj(order[i], order[j]) {
						b[len(b)-1] = '1'
					}
				}
			}
			if s := string(b); key == "" || s < key {
				key, orders = s, nil
			}
			if string(b) == key {
				orders = append(orders, append([]int(nil), order...))
			}
			return
		}
		for v := 0; v < n; v++ {
			if used&(1<<v) == 0 {
				order = append(order, v)
				rec(used | 1<<v)
				order = order[:len(order)-1]
			}
		}
	}
	rec(0)
	return key, orders
}

// fsmClass is one labelled pattern class of the FSM oracle: its embedding
// count and the MNI domain of every canonical position — the graph vertices
// the position is mapped to by every isomorphism onto every embedding,
// automorphisms included (Bringmann & Nijssen's definition).
type fsmClass struct {
	count   uint64
	domains []map[int]bool
	// tieSplitsOrbit: two positions share (label, degree) but no automorphism
	// maps one to the other. FSM keeps one domain per (label, degree) class
	// (package mni), which is the textbook metric only where this is false.
	tieSplitsOrbit bool
}

// support is the smallest domain.
func (c *fsmClass) support() uint64 {
	s := uint64(len(c.domains[0]))
	for _, d := range c.domains[1:] {
		s = min(s, uint64(len(d)))
	}
	return s
}

// fsmOracle enumerates every connected set of k−1 of the given edges — the
// edge-induced embeddings with k−1 edges, so at most k vertices — and
// aggregates them by canonical form.
func fsmOracle(labels []int, edges [][2]int, k int) map[string]*fsmClass {
	classes := map[string]*fsmClass{}
	subsets(len(edges), k-1, func(set []int) {
		var verts []int // embedding vertex i is graph vertex verts[i]
		local := map[[2]int]bool{}
		index := func(v int) int {
			for i, u := range verts {
				if u == v {
					return i
				}
			}
			verts = append(verts, v)
			return len(verts) - 1
		}
		for _, e := range set {
			a, b := index(edges[e][0]), index(edges[e][1])
			local[[2]int{a, b}], local[[2]int{b, a}] = true, true
		}
		adj := func(i, j int) bool { return local[[2]int{i, j}] }
		reached := 1 // bit set of embedding vertices reached from vertex 0
		for grown := true; grown; {
			grown = false
			for e := range local {
				if reached&(1<<e[0]) != 0 && reached&(1<<e[1]) == 0 {
					reached, grown = reached|1<<e[1], true
				}
			}
		}
		if reached != 1<<len(verts)-1 {
			return
		}
		ls := make([]int, len(verts))
		for i, v := range verts {
			ls[i] = labels[v]
		}
		key, isos := canonicalForm(ls, adj)
		c := classes[key]
		if c == nil {
			c = &fsmClass{domains: make([]map[int]bool, len(verts))}
			for i := range c.domains {
				c.domains[i] = map[int]bool{}
			}
			// Automorphisms of the canonical pattern give the orbits.
			first := isos[0]
			cl := make([]int, len(verts))
			deg := make([]int, len(verts))
			for i := range first {
				cl[i] = ls[first[i]]
				for j := range first {
					if adj(first[i], first[j]) {
						deg[i]++
					}
				}
			}
			_, autos := canonicalForm(cl, func(i, j int) bool { return adj(first[i], first[j]) })
			for i := range cl {
				for j := range cl {
					sameOrbit := false
					for _, a := range autos {
						sameOrbit = sameOrbit || a[i] == j
					}
					if cl[i] == cl[j] && deg[i] == deg[j] && !sameOrbit {
						c.tieSplitsOrbit = true
					}
				}
			}
			classes[key] = c
		}
		c.count++
		for _, iso := range isos {
			for i, v := range iso {
				c.domains[i][verts[v]] = true
			}
		}
	})
	return classes
}

// TestFSMAndTrianglesMatchSubsetOracle pins FSM and TriangleCount against
// the brute-force oracles on random labelled graphs, at 1, 2 and 4 threads,
// unbudgeted and all on disk (checkFSMOracle).
func TestFSMAndTrianglesMatchSubsetOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	frequent, extra := 0, 0
	for trial := 0; trial < 8; trial++ {
		n, nlabels := 5+rng.Intn(6), 1+rng.Intn(3)
		var adj adjMatrix
		labels := make([]int, n)
		b := graph.NewBuilder(n)
		for v := range labels {
			labels[v] = rng.Intn(nlabels)
			b.SetLabel(uint32(v), graph.Label(labels[v]))
		}
		var edges [][2]int
		for i, m := 0, n+rng.Intn(2*n); i < m; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v && !adj[u][v] {
				adj[u][v], adj[v][u] = true, true
				edges = append(edges, [2]int{u, v})
				b.AddEdge(uint32(u), uint32(v))
			}
		}
		g, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		var wantTriangles uint64
		subsets(n, 3, func(set []int) {
			if edges, _, _ := adj.induced(set); edges == 3 {
				wantTriangles++
			}
		})
		classes := map[int]map[string]*fsmClass{}
		for k := 2; k <= 4; k++ {
			classes[k] = fsmOracle(labels, edges, k)
		}

		for _, threads := range []int{1, 2, 4} {
			for _, budget := range []int64{0, 1} {
				what := fmt.Sprintf("trial %d threads %d budget %d", trial, threads, budget)
				env := func() *run.Env {
					e := &run.Env{Threads: threads, MemoryBudget: budget}
					if budget > 0 {
						e.SpillDir = t.TempDir()
					}
					return e
				}
				if got, err := TriangleCount(bgCtx, g, env()); err != nil || got != wantTriangles {
					t.Errorf("%s: triangles = %d (%v), oracle %d", what, got, err, wantTriangles)
				}
				for k := 2; k <= 4; k++ {
					for support := uint64(1); support <= 3; support++ {
						res, _, err := FSM(bgCtx, g, k, support, env())
						if err != nil {
							t.Fatal(err)
						}
						f, x := checkFSMOracle(t, fmt.Sprintf("%s k=%d s=%d", what, k, support), res, classes[k], k, support)
						frequent, extra = frequent+f, extra+x
					}
				}
			}
		}
	}
	if frequent < 500 {
		t.Fatalf("weak inputs: only %d frequent classes checked", frequent)
	}
	t.Logf("%d frequent classes matched the oracle; %d extra classes from the (label, degree) tie rule", frequent, extra)
}

// checkFSMOracle holds one FSM result to the oracle's classes: FSM must
// report every class the oracle finds frequent, with the oracle's embedding
// count and its saturated support (k = 2 reports the exact MNI; deeper
// levels report the threshold, §6.2). The one licensed difference is the
// documented tie rule: FSM merges the domains of positions with equal
// (label, degree), which can only enlarge a support, so it may report an
// extra class — but only one whose tie classes split an orbit, and with no
// more embeddings than the oracle counts. It returns how many frequent and
// extra classes it checked.
func checkFSMOracle(t *testing.T, what string, res []PatternCount, classes map[string]*fsmClass, k int, support uint64) (frequent, extra int) {
	t.Helper()
	got := map[string]PatternCount{}
	for _, pc := range res {
		ls := make([]int, pc.Pattern.K)
		for i := range ls {
			ls[i] = int(pc.Pattern.Labels[i])
		}
		key, _ := canonicalForm(ls, pc.Pattern.HasEdge)
		got[key] = pc
	}
	if len(got) != len(res) {
		t.Errorf("%s: %d results name %d classes", what, len(res), len(got))
	}
	for key, c := range classes {
		pc, reported := got[key]
		wantSupport := support
		if k == 2 {
			wantSupport = c.support()
		}
		switch {
		case c.support() >= support:
			frequent++
			if !reported || pc.Count != c.count || pc.Support != wantSupport {
				t.Errorf("%s: class %s = %+v (reported %v), oracle count %d support %d",
					what, key, pc, reported, c.count, wantSupport)
			}
		case reported:
			extra++
			if !c.tieSplitsOrbit || pc.Count > c.count || pc.Support != support {
				t.Errorf("%s: infrequent class %s reported as %+v (oracle count %d support %d, tie splits an orbit: %v)",
					what, key, pc, c.count, c.support(), c.tieSplitsOrbit)
			}
		}
		delete(got, key)
	}
	for key := range got {
		t.Errorf("%s: class %s has no embedding in the oracle", what, key)
	}
	return frequent, extra
}
