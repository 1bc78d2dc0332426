package apps

// An oracle that is not us: the existing brute-force checks fill patterns
// with this package's own fillVertices and ask the graph's own HasEdge, so a
// bug in either is invisible to them. This one enumerates vertex subsets over
// a plain adjacency matrix built from the edge pairs before any Builder sees
// them, and names shapes by (edge count, degree sequence) — enough to tell
// all connected graphs on 3 and 4 vertices apart — without the pattern, iso
// or graph packages.

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
