// Package mni implements the minimum image-based support metric of
// Bringmann & Nijssen (paper §5.1): the support of a pattern is the minimum,
// over pattern vertices, of the number of distinct graph vertices mapped to
// that vertex across all embeddings. The metric is anti-monotonic, which the
// level-synchronous pruning of FSM relies on.
//
// Following the paper's implementation (§6.2), the exact support is not
// computed: once a pattern's minimum domain reaches the user threshold the
// pattern is marked frequent and its domains are released ("we mark this
// pattern a frequent pattern and prune it from the candidate").
//
// Pattern positions are the (label, degree)-sorted positions produced by
// pattern.SortByLabelDegreeTracked; positions with identical (label, degree)
// are merged into one domain class (the paper does not specify its tie
// handling; TestFSMAndTrianglesMatchSubsetOracle in internal/apps licenses
// the few classes where this differs from the textbook metric).
//
// A domain — the vertex set of one class — is a small open-addressing table
// of uint32 that becomes a bitset over |V| once a larger table would cost
// more bytes than the bitset, and it keeps a running count, so an insert is
// a probe or a test-and-set and reading a pattern's support reads k counts.
// A table holds 8–16 bytes per vertex; no domain ever costs more than the
// bitset, (|V|+63)/64 words. Domains are untracked scratch, like the pattern
// maps that hold them and the pattern memo beside them: nothing charges them
// to a memtrack.Tracker, so MemoryBudget does not see them. They live only
// until their pattern turns frequent, and the budget governs stored levels —
// charging short-lived per-worker domains would let FSM's bookkeeping, not
// its embeddings, decide what spills (on the fsm4-disk graph about 300 KB of
// domains are live at the end of FSM's final pass, against a tracked peak
// of 15,848 B).
package mni

import (
	"bytes"
	"cmp"
	"slices"

	"kaleido/internal/graph"
	"kaleido/internal/pattern"
)

// Agg tracks one pattern's embedding count and MNI domains.
type Agg struct {
	Pat      *pattern.Pattern
	Count    uint64
	frequent bool
	support  uint64
	words    int      // bitset length over the graph's vertices
	domains  []domain // indexed by sorted position; only tie representatives are used
	tie      [pattern.MaxK]uint8
}

// NewCount starts a count-only aggregation for (a clone of) the sorted
// pattern p: the Agg is frequent from the start — a support threshold of 0 —
// so it tallies embeddings and never tracks a domain.
func NewCount(p *pattern.Pattern) *Agg {
	return &Agg{Pat: p.Clone(), frequent: true}
}

// NewAgg starts aggregation for (a clone of) the sorted pattern p over a
// graph of nv vertices: every vertex Insert sees is below nv.
func NewAgg(p *pattern.Pattern, nv int) *Agg {
	return &Agg{
		Pat:     p.Clone(),
		words:   (nv + 63) / 64,
		domains: make([]domain, p.K),
		tie:     TieClasses(p),
	}
}

// Frequent reports whether the support threshold has been reached.
func (a *Agg) Frequent() bool { return a.frequent }

// Support returns the minimum domain size observed (the threshold-crossing
// value once frequent).
func (a *Agg) Support() uint64 { return a.support }

// Offer makes (a copy of) the sorted pattern p the class representative if
// it encodes smaller than the current one. The representative is the minimum
// over every offer and every merged Agg, so it does not depend on the order
// embeddings or workers arrive in. The positions' (label, degree)
// pairs — all the domains depend on — are the same for every sorted pattern
// of the class. Both encodings go to stack arrays: an offer allocates
// nothing.
func (a *Agg) Offer(p *pattern.Pattern) {
	var x, y [pattern.MaxEncodeLen]byte
	if bytes.Compare(p.AppendEncode(x[:0]), a.Pat.AppendEncode(y[:0])) < 0 {
		*a.Pat = *p
	}
}

// Insert records one embedding: verts[i] is the graph vertex at original
// pattern index i, perm maps original indices to sorted positions. The
// support is re-read only when a domain grew: an embedding whose vertices
// every domain already holds cannot change it.
func (a *Agg) Insert(verts []uint32, perm *[pattern.MaxK]uint8, support uint64) {
	a.Count++
	if a.frequent {
		return
	}
	grew := false
	for i, v := range verts {
		if a.domains[a.tie[perm[i]]].add(v, a.words) {
			grew = true
		}
	}
	if grew {
		a.refresh(support)
	}
}

// Merge folds b (an Agg of the same pattern from another worker) into a.
func (a *Agg) Merge(b *Agg, support uint64) {
	a.Offer(b.Pat)
	a.Count += b.Count
	if a.frequent {
		return
	}
	if b.frequent {
		a.frequent = true
		a.support = b.support
		a.domains = nil
		return
	}
	for pos := range a.domains {
		if a.tie[pos] == uint8(pos) {
			a.domains[pos].merge(&b.domains[pos], a.words)
		}
	}
	a.refresh(support)
}

func (a *Agg) refresh(support uint64) {
	m := uint64(1<<63 - 1)
	for pos := range a.domains {
		if a.tie[pos] == uint8(pos) {
			m = min(m, uint64(a.domains[pos].n))
		}
	}
	a.support = m
	if m >= support {
		a.frequent = true
		a.domains = nil
	}
}

// TieClasses groups sorted pattern positions with identical (label, degree):
// out[i] is the representative (first) position of i's class, for i < p.K.
func TieClasses(p *pattern.Pattern) [pattern.MaxK]uint8 {
	var out [pattern.MaxK]uint8
	for i := 0; i < p.K; i++ {
		out[i] = uint8(i)
		if i > 0 && p.Labels[i] == p.Labels[i-1] && p.Deg[i] == p.Deg[i-1] {
			out[i] = out[i-1]
		}
	}
	return out
}

// MergeMaps reduces per-worker pattern maps into one (the Reducer step).
func MergeMaps(maps []map[uint64]*Agg, support uint64) map[uint64]*Agg {
	merged := map[uint64]*Agg{}
	for _, m := range maps {
		for h, agg := range m {
			if prev, ok := merged[h]; ok {
				prev.Merge(agg, support)
			} else {
				merged[h] = agg
			}
		}
	}
	return merged
}

// Pair is the MNI aggregate of one single-edge pattern: the labels of its
// ends (A ≤ B), its embeddings (the edges with those labels) and its exact
// support.
type Pair struct {
	A, B    graph.Label
	Count   uint64
	Support uint64
}

// Pattern returns the pair's sorted single-edge pattern.
func (pr Pair) Pattern() *pattern.Pattern {
	p, _ := pattern.New(2)
	p.Labels[0], p.Labels[1] = pr.A, pr.B
	p.SetEdge(0, 1)
	return p
}

// EdgeSet is a bitset over a graph's edge ids: bit eid is set iff edge eid's
// single-edge pattern is frequent. It costs |E|/8 bytes (rounded up to a
// word) and, like Graph.Below, is derived from the input graph and not
// charged to a memory tracker.
type EdgeSet []uint64

// Has reports whether edge eid has a frequent single-edge pattern.
func (s EdgeSet) Has(eid uint32) bool { return s[eid>>6]>>(eid&63)&1 != 0 }

func pairKey(a, b graph.Label) uint32 {
	return uint32(min(a, b))<<16 | uint32(max(a, b))
}

// EdgePairs is FSM's Init step (§5.1): the exact MNI support of every
// single-edge pattern of g, computed in one pass over the edges. It returns
// the edges whose single-edge pattern is frequent and the frequent pairs'
// aggregates, ordered by (A, B). For a pair (a, a) the two ends are
// automorphic and share one domain; for (a, b) each label has its own — both
// exact, so nothing is released early.
func EdgePairs(g *graph.Graph, support uint64) (EdgeSet, []Pair) {
	type pairAgg struct {
		a, b     domain // b stays empty for (a, a)
		count    uint64
		frequent bool
	}
	words := (g.N() + 63) / 64
	aggs := map[uint32]*pairAgg{}
	for _, ed := range g.Edges() {
		u, v := ed.U, ed.V
		if g.Label(u) > g.Label(v) {
			u, v = v, u // domain a holds the smaller label's end
		}
		key := pairKey(g.Label(u), g.Label(v))
		d := aggs[key]
		if d == nil {
			d = &pairAgg{}
			aggs[key] = d
		}
		d.count++
		d.a.add(u, words)
		if g.Label(u) == g.Label(v) {
			d.a.add(v, words)
		} else {
			d.b.add(v, words)
		}
	}
	var out []Pair
	for key, d := range aggs {
		s := d.a.n
		if d.b.n > 0 {
			s = min(s, d.b.n)
		}
		if uint64(s) >= support {
			d.frequent = true
			out = append(out, Pair{A: graph.Label(key >> 16), B: graph.Label(key), Count: d.count, Support: uint64(s)})
		}
	}
	slices.SortFunc(out, func(x, y Pair) int { return cmp.Compare(pairKey(x.A, x.B), pairKey(y.A, y.B)) })
	freq := make(EdgeSet, (g.M()+63)/64)
	for eid, ed := range g.Edges() {
		if aggs[pairKey(g.Label(ed.U), g.Label(ed.V))].frequent {
			freq[eid>>6] |= 1 << (eid & 63)
		}
	}
	return freq, out
}
