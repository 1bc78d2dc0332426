package explore

import (
	"math/bits"

	"kaleido/internal/graph"
)

// maskBits is the width of an adjacency mask, and with it the largest
// embedding (in units: vertices or edge ids) the engine explores: a level of
// depth maskBits cannot be expanded further (ExpandTo reports an error).
const maskBits = 32

// candBuf is a struct-of-arrays candidate buffer: the sorted candidate ids
// plus, per candidate, its provenance — the adjacency mask, bit i set iff the
// candidate is adjacent to embedding position i (0-based). Provenance falls
// out of the candidate-set merge for free (mergeUnionProv ORs one bit per
// source list) and serves three readers without a single adjacency probe:
// its lowest set bit — the earliest adjacent position, decoded once per run
// of leaves into a bound (prefixBounds) — fuses the Definition-2 canonical
// filter into the merge (properties (ii) and (iii) collapse to two integer
// comparisons per candidate, see appendCanonical);
// the whole mask is handed to the user's VertexFilter (a clique is "all bits
// set"); and a sink that asks for it gets the mask of every child (the motif
// Mapper's new pattern row).
//
// In edge-induced mode a candidate enters only through the new endpoints of
// an edge (edgeState.update), so only the lowest set bit is meaningful there
// and only that is read.
type candBuf struct {
	ids []uint32
	adj []uint32
}

// setAll fills the buffer with ids, all adjacent to position 0 only.
func (c *candBuf) setAll(ids []uint32) {
	c.ids = append(c.ids[:0], ids...)
	adj := c.adj[:0]
	for range ids {
		adj = append(adj, 1)
	}
	c.adj = adj
}

// copyFrom replaces the buffer contents with o's.
func (c *candBuf) copyFrom(o *candBuf) {
	c.ids = append(c.ids[:0], o.ids...)
	c.adj = append(c.adj[:0], o.adj...)
}

// vertexState maintains the per-level candidate sets of a vertex-induced
// walk: cands[l-1] = N(v1) ∪ … ∪ N(vl), the Fig. 8 structure that lets the
// candidate set of an extended embedding be computed by one O(d̄) merge with
// the new vertex's neighbor list. Alongside each candidate it tracks the
// adjacency mask, and per run of leaves each prefix candidate's canonical
// bound, which together make the canonical filter O(1) per candidate.
type vertexState struct {
	g     *graph.Graph
	cands []candBuf
	// psuf[i] = max(emb[i:k-1]) over the prefix of the last updatePrefix
	// call, with sentinel psuf[k-1] = 0.
	psuf []uint32
	// bound[i] = psuf[a+1] for candidate i of cands[k-2], a its earliest
	// adjacent position: the prefix half of property (iii), fixed for the run,
	// so the leaf merge compares against it instead of decoding the mask.
	bound []uint32
}

func newVertexState(g *graph.Graph, depth int) *vertexState {
	s := &vertexState{g: g}
	s.ensureDepth(depth)
	return s
}

// ensureDepth grows the per-level buffers to hold depth levels, so one state
// can be reused across exploration iterations of increasing depth.
func (s *vertexState) ensureDepth(depth int) {
	for len(s.cands) < depth {
		s.cands = append(s.cands, candBuf{ids: make([]uint32, 0, 64), adj: make([]uint32, 0, 64)})
	}
	if cap(s.psuf) < depth+1 {
		s.psuf = make([]uint32, depth+1)
	}
}

// refreshLevel recomputes the candidate set of level l from level l−1.
func (s *vertexState) refreshLevel(emb []uint32, l int) {
	nb := s.g.Neighbors(emb[l-1])
	if l == 1 {
		s.cands[0].setAll(nb)
		return
	}
	mergeUnionProv(&s.cands[l-1], &s.cands[l-2], nb, 1<<(l-1))
}

// update refreshes candidate sets for levels from..len(emb) after the walker
// reported that emb changed at level from (1-based).
func (s *vertexState) update(emb []uint32, from int) {
	for l := from; l <= len(emb); l++ {
		s.refreshLevel(emb, l)
	}
}

// updatePrefix refreshes candidate sets for the prefix levels from..k−1 only,
// plus the canonical bounds of cands[k-2] — the once-per-run setup of the
// fused leaf path, which consumes cands[k-2] ∪ N(leaf) without materializing
// it. Requires k ≥ 2.
func (s *vertexState) updatePrefix(emb []uint32, from, k int) {
	for l := from; l < k; l++ {
		s.refreshLevel(emb, l)
	}
	s.bound = prefixBounds(s.bound, s.psuf[:k], emb, s.cands[k-2].adj)
}

// prefixBounds fills psuf with the suffix maxima of the prefix emb[:k-1]
// (k = len(psuf), sentinel psuf[k-1] = 0) and returns, reusing bound, the
// canonical bound psuf[a+1] of every candidate mask in adj, a its lowest set
// bit.
func prefixBounds(bound, psuf, emb, adj []uint32) []uint32 {
	k := len(psuf)
	psuf[k-1] = 0
	for i := k - 2; i >= 0; i-- {
		psuf[i] = max32(emb[i], psuf[i+1])
	}
	bound = bound[:0]
	for _, m := range adj {
		bound = append(bound, psuf[bits.TrailingZeros32(m)+1])
	}
	return bound
}

// appendCanonical appends to children the canonical extensions of emb (whose
// leaf emb[k-1] just changed to u), fusing the candidate merge
// cands[k-2] ∪ N(u) with the Definition-2 filter: the union is consumed as
// it is produced — no candidate buffer is written or re-read — and, since
// property (i) is monotone over the sorted inputs, both sides gallop
// directly to the first candidate exceeding emb[0]. Requires a prior
// updatePrefix for the current run (any from ≤ k−1).
//
// With a = a candidate's earliest adjacent position, the three properties of
// Definition 2 reduce to (i) cand > emb[0] and (iii) cand > max(emb[a+1:]).
// For a candidate of cands[k-2], a ≤ k−2, so that maximum is
// max(bound, u) with the bound updatePrefix fixed for the run; a candidate
// only in N(u) attaches at the leaf, where the suffix is empty and only
// property (i) — already galloped past — applies. Duplicates need no explicit
// check: every stored embedding is connected in order, so a duplicate
// cand = emb[j] has a < j — it sits after its attachment position and (iii)
// rejects it (j = 0 falls to property (i)). This is the incremental
// CanonicalVertex semantics at O(1) per candidate instead of O(k·log d̄); the
// differential tests verify the equivalence embedding-for-embedding.
//
// A survivor's adjacency mask m is in hand where the merge produced it: the
// stored mask for the cands side, bit k−1 for the N(u) side, both on a tie.
// m is what vf receives, and — when wantAdj is set — what out.adj records
// for every child, parallel to out.children; otherwise out.adj stays empty and
// the N(u) tail is one bulk append. The appends go through out on purpose:
// with the slice headers in locals the merge loop runs out of registers and
// the storing expansion (nil filter, no adj) measured 15–20 % slower.
func (s *vertexState) appendCanonical(k int, u uint32, emb []uint32, worker int, vf VertexFilter, wantAdj bool, out *expansion) {
	out.children, out.adj = out.children[:0], out.adj[:0]
	emb0 := emb[0]
	if emb0 == ^uint32(0) {
		return // nothing can exceed emb[0]; emb0+1 would wrap below
	}
	nb := s.g.Neighbors(u)
	leaf := uint32(1) << (k - 1)
	j := gallopGE(nb, 0, emb0+1)
	if k > 1 {
		a := &s.cands[k-2]
		aids, aadj, bound := a.ids, a.adj, s.bound
		i := gallopGE(aids, 0, emb0+1)
		for i < len(aids) && j < len(nb) {
			x, y := aids[i], nb[j]
			if x <= y {
				tie := x == y
				if tie {
					j++
				}
				if x > u && x > bound[i] {
					m := aadj[i]
					if tie {
						m |= leaf
					}
					if vf == nil || vf(worker, emb, x, m) {
						out.children = append(out.children, x)
						if wantAdj {
							out.adj = append(out.adj, m)
						}
					}
				}
				i++
			} else {
				if vf == nil || vf(worker, emb, y, leaf) {
					out.children = append(out.children, y)
					if wantAdj {
						out.adj = append(out.adj, leaf)
					}
				}
				j++
			}
		}
		for ; i < len(aids); i++ {
			if x := aids[i]; x > u && x > bound[i] && (vf == nil || vf(worker, emb, x, aadj[i])) {
				out.children = append(out.children, x)
				if wantAdj {
					out.adj = append(out.adj, aadj[i])
				}
			}
		}
	}
	// What is left of N(u) — all of it past emb[0] when k = 1 — is adjacent to
	// the leaf only.
	if vf == nil {
		out.children = append(out.children, nb[j:]...)
		if wantAdj {
			for range nb[j:] {
				out.adj = append(out.adj, leaf)
			}
		}
	} else {
		for ; j < len(nb); j++ {
			if vf(worker, emb, nb[j], leaf) {
				out.children = append(out.children, nb[j])
				if wantAdj {
					out.adj = append(out.adj, leaf)
				}
			}
		}
	}
}

// candidates returns the candidate set of the full embedding (neighbors of
// any embedding vertex, including embedding vertices themselves — callers
// filter those via canonical).
func (s *vertexState) candidates(k int) *candBuf { return &s.cands[k-1] }

// predict returns the §4.2 prediction of the candidate-set size of the
// embedding extended with vertex v: |cands ∪ N(v)|.
func (s *vertexState) predict(k int, v uint32) int {
	return mergeUnionCount(s.cands[k-1].ids, s.g.Neighbors(v))
}

// edgeState is the edge-induced analogue: verts[l-1] is the sorted vertex
// set of the first l edges; cands[l-1] holds the incident edge ids, the lowest
// set bit of each one's mask being its earliest adjacent position.
type edgeState struct {
	g     *graph.Graph
	verts [][]uint32
	cands []candBuf
	tmp   []uint32
	// psuf and bound mirror vertexState's for the fused leaf path.
	psuf, bound []uint32
}

func newEdgeState(g *graph.Graph, depth int) *edgeState {
	s := &edgeState{g: g, tmp: make([]uint32, 0, 64)}
	s.ensureDepth(depth)
	return s
}

// ensureDepth grows the per-level buffers to hold depth levels.
func (s *edgeState) ensureDepth(depth int) {
	for len(s.cands) < depth {
		s.verts = append(s.verts, make([]uint32, 0, depth+1))
		s.cands = append(s.cands, candBuf{ids: make([]uint32, 0, 64), adj: make([]uint32, 0, 64)})
	}
	if cap(s.psuf) < depth+1 {
		s.psuf = make([]uint32, depth+1)
	}
}

// update refreshes vertex sets and candidate edge sets for levels
// from..len(emb); emb holds edge ids.
//
// Provenance invariant: a candidate edge already in cands[l-2] shares an
// endpoint with an embedding edge at some position ≤ l-2, so its earliest
// adjacency is unchanged by the new edge; a candidate entering through the
// new endpoints' incident lists is adjacent first at position l-1 — were it
// adjacent to an earlier edge, it would be incident to an earlier vertex and
// hence already in cands[l-2]. (Bit l-1 is not set for a candidate that meets
// edge l-1 only at an old endpoint, which is why the higher bits of an edge
// mask mean nothing.)
func (s *edgeState) update(emb []uint32, from int) {
	for l := from; l <= len(emb); l++ {
		s.refreshLevel(emb, l)
	}
}

// refreshLevel recomputes the vertex set and candidate set of level l.
func (s *edgeState) refreshLevel(emb []uint32, l int) {
	e := s.g.EdgeAt(emb[l-1])
	if l == 1 {
		s.verts[0] = append(s.verts[0][:0], e.U, e.V) // E.U < E.V by construction
		s.tmp = mergeUnion(s.tmp, s.g.IncidentEdges(e.U), s.g.IncidentEdges(e.V))
		s.cands[0].setAll(s.tmp)
		return
	}
	prev := s.verts[l-2]
	vl := append(s.verts[l-1][:0], prev...)
	newU := !containsSorted(prev, e.U)
	newV := !containsSorted(prev, e.V)
	if newU {
		vl = insertSorted(vl, e.U)
	}
	if newV {
		vl = insertSorted(vl, e.V)
	}
	s.verts[l-1] = vl
	bit := uint32(1) << (l - 1)
	switch {
	case newU && newV:
		s.tmp = mergeUnion(s.tmp, s.g.IncidentEdges(e.U), s.g.IncidentEdges(e.V))
		mergeUnionProv(&s.cands[l-1], &s.cands[l-2], s.tmp, bit)
	case newU:
		mergeUnionProv(&s.cands[l-1], &s.cands[l-2], s.g.IncidentEdges(e.U), bit)
	case newV:
		mergeUnionProv(&s.cands[l-1], &s.cands[l-2], s.g.IncidentEdges(e.V), bit)
	default:
		s.cands[l-1].copyFrom(&s.cands[l-2])
	}
}

// updatePrefix refreshes levels from..k−1 and the canonical bounds of
// cands[k-2] — the once-per-run setup of the fused edge leaf path. Requires
// k ≥ 2.
func (s *edgeState) updatePrefix(emb []uint32, from, k int) {
	for l := from; l < k; l++ {
		s.refreshLevel(emb, l)
	}
	s.bound = prefixBounds(s.bound, s.psuf[:k], emb, s.cands[k-2].adj)
}

// appendCanonical is the edge-induced fused leaf expansion: it consumes
// cands[k-2] ∪ incident(new endpoints of f) as the union is merged, applying
// the Definition-2 filter inline (see vertexState.appendCanonical). The
// extended vertex set verts[k-1] is materialized only when ef needs it.
func (s *edgeState) appendCanonical(k int, f uint32, emb []uint32, worker int, ef EdgeFilter, children []uint32) []uint32 {
	emb0 := emb[0]
	if emb0 == ^uint32(0) {
		return children // nothing can exceed emb[0]; emb0+1 would wrap below
	}
	e := s.g.EdgeAt(f)
	if k == 1 {
		s.tmp = mergeUnion(s.tmp, s.g.IncidentEdges(e.U), s.g.IncidentEdges(e.V))
		if ef != nil {
			s.verts[0] = append(s.verts[0][:0], e.U, e.V)
		}
		for j := gallopGE(s.tmp, 0, emb0+1); j < len(s.tmp); j++ {
			if ef == nil || ef(worker, emb, s.verts[0], s.tmp[j]) {
				children = append(children, s.tmp[j])
			}
		}
		return children
	}
	prev := s.verts[k-2]
	newU := !containsSorted(prev, e.U)
	newV := !containsSorted(prev, e.V)
	var vl []uint32
	if ef != nil {
		vl = append(s.verts[k-1][:0], prev...)
		if newU {
			vl = insertSorted(vl, e.U)
		}
		if newV {
			vl = insertSorted(vl, e.V)
		}
		s.verts[k-1] = vl
	}
	var b []uint32
	switch {
	case newU && newV:
		s.tmp = mergeUnion(s.tmp, s.g.IncidentEdges(e.U), s.g.IncidentEdges(e.V))
		b = s.tmp
	case newU:
		b = s.g.IncidentEdges(e.U)
	case newV:
		b = s.g.IncidentEdges(e.V)
	}
	a := &s.cands[k-2]
	aids, bound := a.ids, s.bound
	i := gallopGE(aids, 0, emb0+1)
	j := gallopGE(b, 0, emb0+1)
	for i < len(aids) && j < len(b) {
		x, y := aids[i], b[j]
		if x <= y {
			if x == y {
				j++
			}
			if x > f && x > bound[i] && (ef == nil || ef(worker, emb, vl, x)) {
				children = append(children, x)
			}
			i++
		} else {
			if ef == nil || ef(worker, emb, vl, y) {
				children = append(children, y)
			}
			j++
		}
	}
	for ; i < len(aids); i++ {
		if x := aids[i]; x > f && x > bound[i] && (ef == nil || ef(worker, emb, vl, x)) {
			children = append(children, x)
		}
	}
	if ef == nil {
		children = append(children, b[j:]...)
	} else {
		for ; j < len(b); j++ {
			if ef(worker, emb, vl, b[j]) {
				children = append(children, b[j])
			}
		}
	}
	return children
}

// candidates returns the candidate edge ids of the full embedding.
func (s *edgeState) candidates(k int) *candBuf { return &s.cands[k-1] }

// vertices returns the sorted vertex set of the full embedding.
func (s *edgeState) vertices(k int) []uint32 { return s.verts[k-1] }

// predict estimates the candidate-set size after appending edge id f.
func (s *edgeState) predict(k int, f uint32) int {
	e := s.g.EdgeAt(f)
	vk := s.verts[k-1]
	newU := !containsSorted(vk, e.U)
	newV := !containsSorted(vk, e.V)
	switch {
	case newU && newV:
		s.tmp = mergeUnion(s.tmp, s.g.IncidentEdges(e.U), s.g.IncidentEdges(e.V))
		return mergeUnionCount(s.cands[k-1].ids, s.tmp)
	case newU:
		return mergeUnionCount(s.cands[k-1].ids, s.g.IncidentEdges(e.U))
	case newV:
		return mergeUnionCount(s.cands[k-1].ids, s.g.IncidentEdges(e.V))
	default:
		return len(s.cands[k-1].ids)
	}
}

// newVertexCount returns how many endpoints of edge f are outside the
// current vertex set — used by vertex-budget filters (k-FSM's "at most k
// vertices" constraint).
func (s *edgeState) newVertexCount(k int, f uint32) int {
	e := s.g.EdgeAt(f)
	n := 0
	if !containsSorted(s.verts[k-1], e.U) {
		n++
	}
	if !containsSorted(s.verts[k-1], e.V) {
		n++
	}
	return n
}

func max32(a, b uint32) uint32 {
	if a > b {
		return a
	}
	return b
}
