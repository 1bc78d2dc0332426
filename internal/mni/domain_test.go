package mni

import (
	"fmt"
	"math/rand"
	"testing"

	"kaleido/internal/graph"
	"kaleido/internal/pattern"
)

// domainSizes are the |V| the differential tests run at: a one-word bitset
// (where a domain is a bitset from its first vertex), both sides of a word
// boundary, the fsm4-disk graph's 1920 and a larger power of two.
var domainSizes = []int{1, 63, 64, 65, 1920, 4096}

// members lists what d holds, read from whichever representation it has.
func members(d *domain) map[uint32]struct{} {
	out := map[uint32]struct{}{}
	for _, key := range d.set {
		if key != 0 {
			out[key-1] = struct{}{}
		}
	}
	for i, w := range d.bits {
		for b := 0; b < 64; b++ {
			if w>>b&1 == 1 {
				out[uint32(i*64+b)] = struct{}{}
			}
		}
	}
	return out
}

// checkDomain holds d to the map reference: same members, a count equal to
// their number, and a table that never costs more than the bitset would.
func checkDomain(t *testing.T, what string, d *domain, ref map[uint32]struct{}, words int) {
	t.Helper()
	if d.n != len(ref) {
		t.Fatalf("%s: count %d, reference %d", what, d.n, len(ref))
	}
	got := members(d)
	if len(got) != len(ref) {
		t.Fatalf("%s: %d members, reference %d", what, len(got), len(ref))
	}
	for v := range ref {
		if _, ok := got[v]; !ok {
			t.Fatalf("%s: vertex %d missing", what, v)
		}
	}
	if d.set != nil && d.bits != nil {
		t.Fatalf("%s: table and bitset both live", what)
	}
	if 4*len(d.set) > 8*words {
		t.Fatalf("%s: table of %d slots costs more than a %d-word bitset", what, len(d.set), words)
	}
}

// randomVertices draws n vertices below nv: half the time from a narrow
// window (re-inserting the same few, as an infrequent pattern does), always
// including nv−1 once in a while.
func randomVertices(rng *rand.Rand, nv, n int) []uint32 {
	window := nv
	if rng.Intn(2) == 0 {
		window = 1 + rng.Intn(min(nv, 24))
	}
	out := make([]uint32, n)
	for i := range out {
		out[i] = uint32(rng.Intn(window))
		if rng.Intn(16) == 0 {
			out[i] = uint32(nv - 1)
		}
	}
	return out
}

// TestDomainMatchesMap is the domain's differential property: random insert
// and merge sequences give the same set as a map[uint32]struct{}, with
// merges taken table-into-table, table-into-bitset, bitset-into-table and
// bitset-into-bitset (the last three only exist once |V| > 64).
func TestDomainMatchesMap(t *testing.T) {
	for _, nv := range domainSizes {
		t.Run(fmt.Sprint(nv), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(nv)))
			words := (nv + 63) / 64
			kinds := map[string]int{}
			kind := func(d *domain) string {
				if d.bits != nil {
					return "bits"
				}
				return "set"
			}
			// Half the domains get a handful of inserts, so that tables
			// survive even where |V| leaves them two slots.
			size := func() int {
				if rng.Intn(2) == 0 {
					return rng.Intn(4)
				}
				return rng.Intn(3*words*64/2 + 40)
			}
			for trial := 0; trial < 300; trial++ {
				var a, b domain
				ra, rb := map[uint32]struct{}{}, map[uint32]struct{}{}
				for _, v := range randomVertices(rng, nv, size()) {
					_, had := ra[v]
					if grew := a.add(v, words); grew == had {
						t.Fatalf("add(%d) reported growth %v, held before: %v", v, grew, had)
					}
					ra[v] = struct{}{}
				}
				for _, v := range randomVertices(rng, nv, size()) {
					b.add(v, words)
					rb[v] = struct{}{}
				}
				checkDomain(t, "a before merge", &a, ra, words)
				checkDomain(t, "b before merge", &b, rb, words)
				kinds[kind(&b)+" into "+kind(&a)]++
				a.merge(&b, words)
				for v := range rb {
					ra[v] = struct{}{}
				}
				checkDomain(t, "merged", &a, ra, words)
				checkDomain(t, "b after merge", &b, rb, words)
				// Inserting after a merge goes on from the merged state.
				for _, v := range randomVertices(rng, nv, rng.Intn(40)) {
					_, had := ra[v]
					if grew := a.add(v, words); grew == had {
						t.Fatalf("add(%d) after merge reported growth %v, held before: %v", v, grew, had)
					}
					ra[v] = struct{}{}
				}
				checkDomain(t, "merged then inserted", &a, ra, words)
			}
			want := []string{"bits into bits"}
			if nv > 64 {
				want = append(want, "set into set", "set into bits", "bits into set")
			}
			for _, k := range want {
				if kinds[k] == 0 {
					t.Fatalf("no %q merge in %v", k, kinds)
				}
			}
		})
	}
}

// refAgg is the map-based Agg the domain type replaced: one
// map[uint32]struct{} per tie class, the same threshold and release rules.
type refAgg struct {
	count    uint64
	frequent bool
	support  uint64
	domains  []map[uint32]struct{}
	tie      [pattern.MaxK]uint8
}

func newRefAgg(p *pattern.Pattern) *refAgg {
	r := &refAgg{domains: make([]map[uint32]struct{}, p.K), tie: TieClasses(p)}
	for i := range r.domains {
		r.domains[i] = map[uint32]struct{}{}
	}
	return r
}

func (r *refAgg) insert(verts []uint32, perm *[pattern.MaxK]uint8, support uint64) {
	r.count++
	if r.frequent {
		return
	}
	for i, v := range verts {
		r.domains[r.tie[perm[i]]][v] = struct{}{}
	}
	r.refresh(support)
}

func (r *refAgg) merge(b *refAgg, support uint64) {
	r.count += b.count
	if r.frequent {
		return
	}
	if b.frequent {
		r.frequent, r.support, r.domains = true, b.support, nil
		return
	}
	for pos, d := range b.domains {
		for v := range d {
			r.domains[pos][v] = struct{}{}
		}
	}
	r.refresh(support)
}

func (r *refAgg) refresh(support uint64) {
	m := uint64(1<<63 - 1)
	for pos, d := range r.domains {
		if r.tie[pos] == uint8(pos) {
			m = min(m, uint64(len(d)))
		}
	}
	r.support = m
	if m >= support {
		r.frequent, r.domains = true, nil
	}
}

func sameAgg(t *testing.T, what string, a *Agg, r *refAgg) {
	t.Helper()
	if a.Count != r.count || a.Support() != r.support || a.Frequent() != r.frequent {
		t.Fatalf("%s: count/support/frequent %d/%d/%v, reference %d/%d/%v",
			what, a.Count, a.Support(), a.Frequent(), r.count, r.support, r.frequent)
	}
}

// randomSortedPattern draws a pattern on k vertices over few labels, so that
// (label, degree) ties — shared domains — are common, and sorts it.
func randomSortedPattern(rng *rand.Rand, k int) *pattern.Pattern {
	p, _ := pattern.New(k)
	for i := 0; i < k; i++ {
		p.Labels[i] = uint16(rng.Intn(2))
		if i > 0 {
			p.SetEdge(rng.Intn(i), i)
		}
	}
	p.SortByLabelDegree()
	return p
}

// TestAggMatchesMapReference runs per-worker Aggs of random patterns through
// random embeddings and a random merge order, next to map-based reference
// Aggs: Count, Support() and Frequent() agree after every insert and every
// merge, at thresholds that are crossed early, late, by a merge, or never.
func TestAggMatchesMapReference(t *testing.T) {
	for _, nv := range domainSizes {
		t.Run(fmt.Sprint(nv), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(nv) + 7))
			for trial := 0; trial < 60; trial++ {
				k := 2 + rng.Intn(pattern.MaxK-1)
				p := randomSortedPattern(rng, k)
				support := []uint64{1, 3, 17, uint64(nv/2 + 1), 1 << 62}[rng.Intn(5)]
				workers := 1 + rng.Intn(4)
				aggs := make([]*Agg, workers)
				refs := make([]*refAgg, workers)
				for w := range aggs {
					aggs[w], refs[w] = NewAgg(p, nv), newRefAgg(p)
					for e := rng.Intn(200); e > 0; e-- {
						verts := randomVertices(rng, nv, k)
						var perm [pattern.MaxK]uint8
						for i, j := range rng.Perm(k) {
							perm[i] = uint8(j)
						}
						aggs[w].Insert(verts, &perm, support)
						refs[w].insert(verts, &perm, support)
						sameAgg(t, fmt.Sprintf("trial %d worker %d insert", trial, w), aggs[w], refs[w])
					}
				}
				for _, w := range rng.Perm(workers)[1:] {
					aggs[0].Merge(aggs[w], support)
					refs[0].merge(refs[w], support)
					sameAgg(t, fmt.Sprintf("trial %d merge of worker %d", trial, w), aggs[0], refs[0])
				}
			}
		})
	}
}

// TestEdgePairs pins the single-edge MNI pass on a hand-checked graph:
// labels 0,0,1,1,1 on a path 0-1-2-3-4 plus the edge 0-2.
func TestEdgePairs(t *testing.T) {
	g := labelledPath(t)
	freq, pairs := EdgePairs(g, 2)
	// (0,0): edge 0-1, one domain {0,1} → support 2.
	// (0,1): edges 1-2 and 0-2, domains {0,1} and {2} → support 1.
	// (1,1): edges 2-3 and 3-4, one domain {2,3,4} → support 3.
	want := []Pair{{A: 0, B: 0, Count: 1, Support: 2}, {A: 1, B: 1, Count: 2, Support: 3}}
	if fmt.Sprint(pairs) != fmt.Sprint(want) {
		t.Fatalf("pairs = %v, want %v", pairs, want)
	}
	for eid, e := range g.Edges() {
		wantHas := g.Label(e.U) == g.Label(e.V)
		if freq.Has(uint32(eid)) != wantHas {
			t.Fatalf("edge %v: Has = %v", e, !wantHas)
		}
	}
	if _, all := EdgePairs(g, 1); len(all) != 3 || all[1].Support != 1 || all[1].Count != 2 {
		t.Fatalf("support 1: %v", all)
	}
}

func labelledPath(t *testing.T) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(5)
	for _, e := range [][2]uint32{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {0, 2}} {
		b.AddEdge(e[0], e[1])
	}
	for v := uint32(2); v < 5; v++ {
		b.SetLabel(v, 1)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// BenchmarkAggInsert measures one Agg.Insert of a 4-vertex embedding into a
// pattern that never turns frequent, in steady state: the embeddings cycle,
// so after the warm-up pass every domain has its final shape and an insert
// allocates nothing. "set" draws from 16 vertices (domains stay tables),
// "bitset" from the whole graph (domains are bitsets over |V|).
func BenchmarkAggInsert(b *testing.B) {
	const nv = 1920
	p := randomSortedPattern(rand.New(rand.NewSource(1)), 4)
	for _, c := range []struct {
		name   string
		window int
	}{{"set", 16}, {"bitset", nv}} {
		b.Run(c.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(2))
			embs := make([][4]uint32, 4096)
			for i := range embs {
				for j := range embs[i] {
					embs[i][j] = uint32(rng.Intn(c.window))
				}
			}
			perm := [pattern.MaxK]uint8{0, 1, 2, 3}
			a := NewAgg(p, nv)
			for i := range embs {
				a.Insert(embs[i][:], &perm, 1<<62)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a.Insert(embs[i%len(embs)][:], &perm, 1<<62)
			}
		})
	}
}
