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
// handling; see DESIGN.md).
package mni

import "kaleido/internal/pattern"

// Agg tracks one pattern's embedding count and MNI domains.
type Agg struct {
	Pat      *pattern.Pattern
	Count    uint64
	frequent bool
	support  uint64
	domains  []map[uint32]struct{}
	tie      []uint8
}

// NewCount starts a count-only aggregation for (a clone of) the sorted
// pattern p: the Agg is frequent from the start — a support threshold of 0 —
// so it tallies embeddings and never tracks a domain.
func NewCount(p *pattern.Pattern) *Agg {
	return &Agg{Pat: p.Clone(), frequent: true}
}

// NewAgg starts aggregation for (a clone of) the sorted pattern p.
func NewAgg(p *pattern.Pattern) *Agg {
	a := &Agg{Pat: p.Clone(), domains: make([]map[uint32]struct{}, p.K)}
	a.tie = TieClasses(a.Pat)
	for i := range a.domains[:p.K] {
		if a.tie[i] == uint8(i) {
			a.domains[i] = map[uint32]struct{}{}
		}
	}
	return a
}

// Frequent reports whether the support threshold has been reached.
func (a *Agg) Frequent() bool { return a.frequent }

// Support returns the minimum domain size observed (the threshold-crossing
// value once frequent).
func (a *Agg) Support() uint64 { return a.support }

// Offer makes (a clone of) the sorted pattern p the class representative if
// it encodes smaller than the current one. The representative is the minimum
// over every offer and every merged Agg, so it does not depend on the order
// embeddings or workers arrive in. The positions' (label, degree)
// pairs — all the domains depend on — are the same for every sorted pattern
// of the class.
func (a *Agg) Offer(p *pattern.Pattern) {
	if p.Encode() < a.Pat.Encode() {
		a.Pat = p.Clone()
	}
}

// Insert records one embedding: verts[i] is the graph vertex at original
// pattern index i, perm maps original indices to sorted positions.
func (a *Agg) Insert(verts []uint32, perm *[pattern.MaxK]uint8, support uint64) {
	a.Count++
	if a.frequent {
		return
	}
	for i, v := range verts {
		a.domains[a.tie[perm[i]]][v] = struct{}{}
	}
	a.refresh(support)
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
	for pos, d := range b.domains[:b.Pat.K] {
		if d == nil {
			continue
		}
		for v := range d {
			a.domains[pos][v] = struct{}{}
		}
	}
	a.refresh(support)
}

func (a *Agg) refresh(support uint64) {
	m := uint64(1<<63 - 1)
	for pos, d := range a.domains[:a.Pat.K] {
		if a.tie[pos] != uint8(pos) {
			continue
		}
		if uint64(len(d)) < m {
			m = uint64(len(d))
		}
	}
	a.support = m
	if m >= support {
		a.frequent = true
		a.domains = nil
	}
}

// TieClasses groups sorted pattern positions with identical (label, degree):
// out[i] is the representative (first) position of i's class.
func TieClasses(p *pattern.Pattern) []uint8 {
	out := make([]uint8, p.K)
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
