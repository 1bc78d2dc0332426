package explore

import (
	"math/bits"
	"slices"

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
// its lowest set bit — the earliest adjacent position — gives a prefix
// candidate its Definition-2 bound, which vertexState.updatePrefix checks
// once per run of leaves (properties (ii) and (iii) collapse to integer
// comparisons, see appendCanonical);
// the whole mask is handed to the user's VertexFilter (a clique is "all bits
// set"); and the row sink gets the masks of every parent vertex, read back
// from the candidate set it joined, and the histogram of its children's
// masks (the rows of the motif Mapper's patterns, see countRows).
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
// adjacency mask. Per run of leaves it filters the prefix candidates once —
// the keep list plus a stamp per prefix candidate — so that a leaf pays only
// for its own neighbor list and its children, not for all of cands[k-2]. The
// row walk goes one level further: a leaf's children, listed once
// (childList), are the keep list of the prefix that ends in the leaf, and
// each child then pays only for its own neighbor list (countRows).
type vertexState struct {
	g     *graph.Graph
	cands []candBuf
	// psuf[i] = max(emb[i:k-1]) over the prefix of the last updatePrefix
	// call, with sentinel psuf[k-1] = 0.
	psuf []uint32
	// keep holds the entries of cands[k-2] past emb[0] that pass their
	// prefix bound, with their masks; mk stamps every entry of cands[k-2]
	// past emb[0]. Both are fixed for a run (see updatePrefix).
	keep candBuf
	mk   *graph.NeighborMarker
	// at is the keep cursor: keep.ids[:at] ≤ the run's latest leaf. Leaves
	// ascend within a group, so it only moves forward.
	at int
	// kids is the row walk's child list of the latest leaf v, masks in the
	// frame of the prefix ending in v, and hist the histogram of the masks
	// of the children not yet counted. Only childList and countRows read or
	// write them.
	kids candBuf
	hist []uint32
	// fresh lists the entries childList stamped for the latest leaf, the
	// ones unstamp takes out again.
	fresh []uint32
	// embAdj[l] is the mask of emb[l] against emb[:l] — the parent's own
	// adjacency, handed to the row sink (see prefixAdj and childList) — and
	// ext the row walk's own embedding buffer, the walker's prefix plus the
	// leaf and the child.
	embAdj, ext []uint32
}

func newVertexState(g *graph.Graph, depth int) *vertexState {
	s := &vertexState{g: g, mk: g.NewNeighborMarker()}
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
	if cap(s.embAdj) < depth {
		s.embAdj = make([]uint32, depth)
		s.ext = make([]uint32, depth)
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

// updatePrefix refreshes candidate sets for the prefix levels from..k−1 and
// filters cands[k-2] for the run — the once-per-run setup of the fused leaf
// path, which consumes cands[k-2] ∪ N(leaf) without materializing it. It is
// called when the prefix changed (from < k); a continuation run of the same
// group at a block seam (from = k) keeps the keep list, the stamps and the
// cursor. Requires k ≥ 2.
//
// With a = a candidate's earliest adjacent position, properties (ii) and
// (iii) of Definition 2 reduce to cand > max(emb[a+1:]). For x in cands[k-2],
// a ≤ k−2, so that maximum is max(psuf[a+1], u) for leaf u: the first half
// is fixed for the run and checked here, once per candidate instead of once
// per leaf; the second is a suffix cut of keep, as leaves ascend. Property
// (i), cand > emb[0], is monotone over the sorted list, so only the entries
// past emb[0] are kept or stamped.
func (s *vertexState) updatePrefix(emb []uint32, from, k int) {
	for l := from; l < k; l++ {
		s.refreshLevel(emb, l)
	}
	psuf := suffixMaxima(s.psuf[:k], emb)
	a := &s.cands[k-2]
	ids, adj := s.keep.ids[:0], s.keep.adj[:0]
	mk := s.mk
	mk.Begin()
	for i := gallopGE(a.ids, 0, emb[0]+1); i < len(a.ids); i++ {
		x, m := a.ids[i], a.adj[i]
		mk.Mark(x)
		if x > psuf[bits.TrailingZeros32(m)+1] {
			ids = append(ids, x)
			adj = append(adj, m)
		}
	}
	s.keep.ids, s.keep.adj, s.at = ids, adj, 0
}

// prefixAdj fills embAdj[l] for the prefix positions the run changed, l from
// from−1 to k−2 (the rest carry over from the previous run; embAdj[0] is
// always 0, and childList returns the leaf's mask per leaf). The mask of
// emb[l] is its entry in cands[l-1], which updatePrefix just refreshed: one
// search per changed level and run, no graph probe. emb[1] joined as a
// neighbour of emb[0], so its mask is 1. Call it after updatePrefix.
func (s *vertexState) prefixAdj(emb []uint32, from, k int) {
	for l := max(from-1, 1); l < k-1; l++ {
		if l == 1 {
			s.embAdj[1] = 1
			continue
		}
		s.embAdj[l] = s.cands[l-1].maskOf(emb[l])
	}
}

// maskOf returns the mask of id in c, 0 if id is not a candidate — adjacent
// to no embedding vertex.
func (c *candBuf) maskOf(id uint32) uint32 {
	if i := gallopGE(c.ids, 0, id); i < len(c.ids) && c.ids[i] == id {
		return c.adj[i]
	}
	return 0
}

// suffixMaxima fills psuf with the suffix maxima of the prefix emb[:k-1]
// (k = len(psuf), sentinel psuf[k-1] = 0) and returns it.
func suffixMaxima(psuf, emb []uint32) []uint32 {
	k := len(psuf)
	psuf[k-1] = 0
	for i := k - 2; i >= 0; i-- {
		psuf[i] = max32(emb[i], psuf[i+1])
	}
	return psuf
}

// prefixBounds fills psuf with the suffix maxima of the prefix emb[:k-1]
// (k = len(psuf)) and returns, reusing bound, the canonical bound psuf[a+1]
// of every candidate mask in adj, a its lowest set bit.
func prefixBounds(bound, psuf, emb, adj []uint32) []uint32 {
	suffixMaxima(psuf, emb)
	bound = bound[:0]
	for _, m := range adj {
		bound = append(bound, psuf[bits.TrailingZeros32(m)+1])
	}
	return bound
}

// appendCanonical appends to children the canonical extensions of emb
// (whose leaf emb[k-1] just changed to u) that the filter vf admits — the
// Definition-2 survivors of cands[k-2] ∪ N(u), in ascending order, consumed
// as the union is merged: no candidate buffer is written or re-read. vf
// receives each survivor's adjacency mask. Requires a prior updatePrefix for
// the current run when k ≥ 2 (any from ≤ k−1).
//
// The prefix side was filtered once per run (updatePrefix), so a leaf walks
// only N(u) past emb[0] and its own children: O(|N(u)| + children) per leaf.
// It offers vf, in order,
//  1. the entries of N(u) in (emb[0], u] that are not stamped — candidates
//     only the leaf adds, which attach at the leaf, where the suffix is empty
//     and only property (i) applies; they sort below every kept prefix
//     candidate, all of which exceed u;
//  2. keep past u merged with N(u) past u: a tie gains the leaf bit, an entry
//     only in keep keeps its mask, and an entry only in N(u) is a child iff
//     it is unstamped — a stamped one is a prefix candidate that failed its
//     bound.
//
// Duplicates need no explicit check: every stored embedding is connected in
// order, so a duplicate cand = emb[j] has a < j — it sits after its
// attachment position and fails its bound (j = 0 falls to property (i)). This
// is the incremental CanonicalVertex semantics; the differential tests verify
// the equivalence embedding-for-embedding.
//
// Without a filter, appendStored is the same leaf, cheaper, and childList
// the same leaf for the row walk, which keeps the children's masks.
func (s *vertexState) appendCanonical(k int, u uint32, emb []uint32, worker int, vf VertexFilter, children []uint32) []uint32 {
	emb0 := emb[0]
	if emb0 == ^uint32(0) {
		return children // nothing can exceed emb[0]; emb0+1 would wrap below
	}
	nb := s.g.Neighbors(u)
	leaf := uint32(1) << (k - 1)
	j := gallopGE(nb, 0, emb0+1)
	if k == 1 {
		// emb = ⟨u⟩: every neighbor past u is a child, adjacent to u only.
		for _, y := range nb[j:] {
			if vf(worker, emb, y, leaf) {
				children = append(children, y)
			}
		}
		return children
	}
	mk := s.mk
	for ; j < len(nb) && nb[j] <= u; j++ {
		if y := nb[j]; !mk.Marked(y) && vf(worker, emb, y, leaf) {
			children = append(children, y)
		}
	}
	ids, adj := s.keep.ids, s.keep.adj
	i := s.cursor(u)
	for _, y := range nb[j:] {
		p := i
		for p < len(ids) && ids[p] < y {
			p++
		}
		children = appendKeep(children, ids[i:p], adj[i:p], worker, emb, vf)
		i = p
		m := leaf
		if p < len(ids) && ids[p] == y {
			m |= adj[p]
			i++
		} else if mk.Marked(y) {
			continue
		}
		if vf(worker, emb, y, m) {
			children = append(children, y)
		}
	}
	return appendKeep(children, ids[i:], adj[i:], worker, emb, vf)
}

// appendStored is appendCanonical under no filter, for every sink that takes
// the children — the storing, counting and visiting sinks: it appends u's
// children to dst and returns it. Masks unread, a stamped neighbour of u
// needs nothing — it is in keep, which is copied whole, or it failed its
// bound — so one pass over N(u) past emb[0] probes the marker: the
// unstamped entries up to u are children at once, and each one past u is
// inserted into the copy of keep past u (an unstamped entry is never in
// keep, so there are no ties). The copy runs element by element up to the
// last insertion point, found by the same forward scan, and in bulk after
// it. dst is grown once, for every child the leaf can have.
func (s *vertexState) appendStored(k int, u, emb0 uint32, dst []uint32) []uint32 {
	if emb0 == ^uint32(0) {
		return dst // nothing can exceed emb[0], keep included
	}
	nb := s.g.Neighbors(u)
	// A store4 leaf has 1.7 neighbours up to emb[0]: a linear skip, not a
	// gallop (gallopGE was 6 % of a store4-mem profile here).
	j := 0
	for j < len(nb) && nb[j] <= emb0 {
		j++
	}
	if k == 1 {
		return append(dst, nb[j:]...)
	}
	mk, ids := s.mk, s.keep.ids
	i := s.cursor(u)
	n := len(dst)
	out := slices.Grow(dst, len(nb)-j+len(ids)-i)
	out = out[:cap(out)]
	for ; j < len(nb) && nb[j] <= u; j++ {
		if y := nb[j]; !mk.Marked(y) {
			out[n] = y
			n++
		}
	}
	for ; j < len(nb); j++ {
		y := nb[j]
		if mk.Marked(y) {
			continue
		}
		for i < len(ids) && ids[i] < y {
			out[n] = ids[i]
			n++
			i++
		}
		out[n] = y
		n++
	}
	n += copy(out[n:], ids[i:])
	return out[:n]
}

// cursor moves the keep cursor to the first kept entry past the leaf u and
// returns it. An unfiltered run's leaves are its keep list, so the forward
// scan moves about one entry per leaf.
func (s *vertexState) cursor(u uint32) int {
	ids, i := s.keep.ids, s.at
	if i > 0 && ids[i-1] > u {
		i = 0 // a leaf below the last one: not a walker order, start over
	}
	for i < len(ids) && ids[i] <= u {
		i++
	}
	s.at = i
	return i
}

// appendKeep appends to children the kept prefix candidates ids, with masks
// adj, that vf admits.
func appendKeep(children, ids, adj []uint32, worker int, emb []uint32, vf VertexFilter) []uint32 {
	for q, x := range ids {
		if vf(worker, emb, x, adj[q]) {
			children = append(children, x)
		}
	}
	return children
}

// childList is the leaf of the row walk (ExpandVisitGroups over a level of
// depth d): for the leaf v = emb[d-1] it builds the keep list of the next
// prefix ⟨emb[:d-1], v⟩ and returns v's own mask against emb[:d-1]. The
// next prefix's keep list is v's canonical children — appendStored's list —
// so it is computed once, here, and neither stored nor merged again:
//   - kids.ids: v's children, ascending;
//   - kids.adj: each child's mask in the frame of ⟨emb[:d-1], v⟩, its keep
//     mask plus the leaf bit where it neighbours v, or the leaf bit alone
//     for an unstamped neighbour of v;
//   - hist: the histogram of those masks (length 2^d).
//
// It also stamps N(v) past emb[0] into mk, so that mk holds every candidate
// of the next prefix past emb[0] — the stamp countRows tests. The entries it
// adds are exactly the children whose mask is the leaf bit alone, which
// unstamp takes out again. At d = 1 the prefix is empty: the children are
// N(v) past v, and mk holds them alone. Requires a prior updatePrefix for
// the current run when d ≥ 2, and unstamp after the leaf's children.
func (s *vertexState) childList(d int, v, emb0 uint32) uint32 {
	leaf := uint32(1) << (d - 1)
	h := s.hist
	if n := 1 << d; cap(h) < n {
		h = make([]uint32, n)
	} else {
		h = h[:n]
		clear(h)
	}
	s.hist = h
	kids, kadj, fresh := s.kids.ids[:0], s.kids.adj[:0], s.fresh[:0]
	mk := s.mk
	var self uint32
	if emb0 != ^uint32(0) { // else nothing can exceed emb[0]
		nb := s.g.Neighbors(v)
		j := 0
		for j < len(nb) && nb[j] <= emb0 {
			j++
		}
		if d == 1 {
			mk.Begin()
		}
		var ids, adj []uint32
		i := 0
		if d > 1 {
			ids, adj = s.keep.ids, s.keep.adj
			i = s.cursor(v)
			// The leaf is a canonical child of the prefix, so its mask is in
			// the keep list right behind the cursor; a leaf missing there
			// (a level the explorer did not build under this prefix filter)
			// is looked up in cands[d-2].
			if i > 0 && ids[i-1] == v {
				self = adj[i-1]
			} else {
				self = s.cands[d-2].maskOf(v)
			}
		}
		for ; j < len(nb) && nb[j] <= v; j++ {
			if y := nb[j]; !mk.Marked(y) {
				mk.Mark(y)
				kids, kadj, fresh = append(kids, y), append(kadj, leaf), append(fresh, y)
			}
		}
		for _, y := range nb[j:] {
			for i < len(ids) && ids[i] < y {
				kids, kadj = append(kids, ids[i]), append(kadj, adj[i])
				i++
			}
			if i < len(ids) && ids[i] == y {
				kids, kadj = append(kids, y), append(kadj, adj[i]|leaf)
				i++
			} else if !mk.Marked(y) {
				mk.Mark(y)
				kids, kadj, fresh = append(kids, y), append(kadj, leaf), append(fresh, y)
			}
		}
		kids, kadj = append(kids, ids[i:]...), append(kadj, adj[i:]...)
	}
	for _, m := range kadj {
		h[m]++
	}
	s.kids.ids, s.kids.adj, s.fresh = kids, kadj, fresh
	return self
}

// unstamp takes the stamps childList added for a leaf at depth d back out of
// mk — the children it listed in fresh, those with the leaf bit alone —
// leaving the run's prefix stamps for the next leaf. At d = 1 the next
// childList begins a new batch instead.
func (s *vertexState) unstamp(d int) {
	if d == 1 {
		return
	}
	for _, y := range s.fresh {
		s.mk.Unmark(y)
	}
}

// countRows is the leaf of a sink that reads only its children's masks, one
// level past childList: for the child u = kids.ids[t] of the latest leaf it
// fills rows (length 2^k, u at position k−1) with the histogram of u's
// canonical children's masks and returns u's own mask, kids.adj[t]. No
// child of u is written. The children of one leaf are counted in their
// order, t = 0, 1, …: each call takes u's mask out of hist, which then holds
// the masks of the kids past u.
//
// u's children are the two sets appendCanonical merges, with kids as the
// keep list: the kids past u, each with its mask plus the leaf bit where it
// neighbours u; and the unstamped entries of N(u) past emb[0], each with the
// leaf bit alone. So rows starts from hist and one pass over N(u) past
// emb[0] corrects it: an unstamped entry adds one to row leaf, and a stamped
// one past u that is a kid — a tie, found by a gallop from t+1 — moves one
// from its row m to row m|leaf. A stamped entry that is no kid failed its
// bound, and one up to u is not a child. A child costs O(|N(u)| + 2^k) and a
// lookup per tie, whatever its own children.
func (s *vertexState) countRows(k, t int, emb0 uint32, rows []uint32) uint32 {
	leaf := uint32(1) << (k - 1)
	ids, adj := s.kids.ids, s.kids.adj
	u, self := ids[t], adj[t]
	s.hist[self]--
	// A loop, not copy and clear: the rows are a few words.
	for m, n := range s.hist {
		rows[m], rows[uint32(m)|leaf] = n, 0
	}
	nb := s.g.Neighbors(u)
	// The pass below walks the rest of N(u) anyway: a linear skip.
	j := 0
	for j < len(nb) && nb[j] <= emb0 {
		j++
	}
	mk := s.mk
	p, only := t+1, uint32(0)
	for _, y := range nb[j:] {
		if !mk.Marked(y) {
			only++
			continue
		}
		if y <= u {
			continue
		}
		p = gallopGE(ids, p, y)
		if p < len(ids) && ids[p] == y {
			m := adj[p]
			rows[m]--
			rows[m|leaf]++
			p++
		}
	}
	rows[leaf] += only
	return self
}

// candidates returns the candidate set of the full embedding (neighbors of
// any embedding vertex, including embedding vertices themselves — callers
// filter those via canonical).
func (s *vertexState) candidates(k int) *candBuf { return &s.cands[k-1] }

// edgeState is the edge-induced analogue: verts[l-1] is the sorted vertex
// set of the first l edges; cands[l-1] holds the incident edge ids, the lowest
// set bit of each one's mask being its earliest adjacent position.
type edgeState struct {
	g     *graph.Graph
	verts [][]uint32
	cands []candBuf
	tmp   []uint32
	// psuf mirrors vertexState's; bound[i] = psuf[a+1] for candidate i of
	// cands[k-2], a its earliest adjacent position: the prefix half of
	// property (iii), fixed for the run, which the leaf merge compares
	// against.
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

func max32(a, b uint32) uint32 {
	if a > b {
		return a
	}
	return b
}
