package explore

// Clique exploration: the third exploration unit, next to vertex- and
// edge-induced. A clique embedding is a strictly decreasing vertex sequence
// in which every vertex neighbours every other — each clique once, grown
// toward lower ids, so every stored level is the set of cliques that
// VertexInduced plus a clique filter stores, each embedding reversed. What
// differs is how a leaf finds its children. The union path merges
// N(v1) ∪ … ∪ N(vk) and then discards every candidate whose mask is not
// all-ones (98 % of them on the clique4-mem graph); the extensions of a
// clique are its vertices' *common* neighbours, a list that shrinks with
// depth (the kClist idea, Danisch et al., WWW 2018). Growing downward walks
// the degree orientation: on a hubs-first relabelled graph a vertex's
// neighbours below it (graph.Below, an O(1) prefix of its list) are its
// neighbours of higher degree, few even for a hub, where the neighbours
// above a hub are nearly its whole list. Per run of leaves the prefix's
// common neighbours are stamped into a per-worker graph.NeighborMarker once;
// a leaf u then probes Below(u), and the stamped ids are its children,
// already sorted.

import (
	"context"

	"kaleido/internal/graph"
	"kaleido/internal/storage"
)

// cliqueState is one worker's Clique-mode state: common[l-1] holds
// Below(v1) ∩ … ∩ Below(vl) — the extensions of the l-clique ⟨v1..vl⟩ — and
// mk stamps common[k-2], the candidates every leaf of the current run is
// probed against.
type cliqueState struct {
	g *graph.Graph
	// common[0] aliases the graph's own neighbour list; common[l-1] for l ≥ 2
	// lives in bufs[l-1].
	common, bufs [][]uint32
	mk           *graph.NeighborMarker
}

func newCliqueState(g *graph.Graph, depth int) *cliqueState {
	s := &cliqueState{g: g, mk: g.NewNeighborMarker()}
	s.ensureDepth(depth)
	return s
}

// ensureDepth grows the per-level lists to hold depth levels.
func (s *cliqueState) ensureDepth(depth int) {
	for len(s.common) < depth {
		s.common = append(s.common, nil)
		s.bufs = append(s.bufs, make([]uint32, 0, 64))
	}
}

// refreshLevel recomputes common[l-1] from common[l-2] and the new vertex
// emb[l-1]. emb[l-1] is itself in common[l-2], so only the part of it below
// emb[l-1] can extend the longer clique.
func (s *cliqueState) refreshLevel(emb []uint32, l int) {
	v := emb[l-1]
	if l == 1 {
		s.common[0] = s.g.Below(v)
		return
	}
	prev := s.common[l-2]
	s.bufs[l-1] = intersectSorted(s.bufs[l-1][:0], prev[:gallopGE(prev, 0, v)], s.g.Below(v))
	s.common[l-1] = s.bufs[l-1]
}

// updatePrefix refreshes common[from-1..k-2] after the walker reported that
// emb changed at level from < k, then stamps common[k-2] into the marker —
// the once-per-run setup of the clique leaf. A continuation run of the same
// group (from = k) keeps both. Requires k ≥ 2.
func (s *cliqueState) updatePrefix(emb []uint32, from, k int) {
	for l := from; l < k; l++ {
		s.refreshLevel(emb, l)
	}
	s.mk.Begin()
	for _, v := range s.common[k-2] {
		s.mk.Mark(v)
	}
}

// appendLeaf appends to children the children of the clique whose leaf
// emb[k-1] is u: the vertices of Below(u) that are stamped, in order. At
// k = 1 every neighbour below u qualifies. Requires a prior updatePrefix for
// the current run when k ≥ 2.
func (s *cliqueState) appendLeaf(k int, u uint32, children []uint32) []uint32 {
	nb := s.g.Below(u)
	if k == 1 {
		return append(children, nb...)
	}
	mk := s.mk
	for _, w := range nb {
		if mk.Marked(w) {
			children = append(children, w)
		}
	}
	return children
}

// countLeaf is appendLeaf for a counting sink: the number of children, with
// nothing written.
func (s *cliqueState) countLeaf(k int, u uint32) uint64 {
	nb := s.g.Below(u)
	if k == 1 {
		return uint64(len(nb))
	}
	mk := s.mk
	var n uint64
	for _, w := range nb {
		if mk.Marked(w) {
			n++
		}
	}
	return n
}

// intersectSorted appends a ∩ b, for sorted a and b, to dst. When one side
// is gallopRatio times longer, the shorter gallops through it.
func intersectSorted(dst, a, b []uint32) []uint32 {
	if len(a) > len(b) {
		a, b = b, a
	}
	if len(b) >= gallopRatio*len(a) {
		j := 0
		for _, v := range a {
			if j = gallopGE(b, j, v); j == len(b) {
				break
			}
			if b[j] == v {
				dst = append(dst, v)
				j++
			}
		}
		return dst
	}
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		x, y := a[i], b[j]
		if x == y {
			dst = append(dst, x)
		}
		if x <= y {
			i++
		}
		if y <= x {
			j++
		}
	}
	return dst
}

// expandCliques is expandRange's loop in Clique mode: per run, refresh the
// prefix's common neighbours and re-stamp them only when the prefix changed;
// per leaf, probe its below-neighbour list. Into a CountSink a leaf adds its count to
// the worker's counter and writes no children.
func (e *Explorer) expandCliques(ctx context.Context, w *storage.Walker, k, worker, chunk int, sink ExpandSink) error {
	x := &e.scratch[worker].x
	st := e.cliqueStateFor(worker, k)
	cs, counting := sink.(*CountSink)
	runs := 0
	for {
		emb, from, leaves, ok := w.NextRun()
		if !ok {
			break
		}
		if runs++; runs%pollEvery == 0 {
			if err := ctxErr(ctx); err != nil {
				return err
			}
		}
		if from < k {
			st.updatePrefix(emb, from, k)
		}
		if counting {
			var n uint64
			for _, u := range leaves {
				n += st.countLeaf(k, u)
			}
			cs.counts[worker].n += n
			continue
		}
		x.emb = emb
		for _, u := range leaves {
			emb[k-1] = u
			dst, err := sink.next(worker, chunk, x)
			if err != nil {
				return err
			}
			x.children = st.appendLeaf(k, u, dst)
			if err := sink.emit(worker, chunk, x); err != nil {
				return err
			}
		}
	}
	return w.Err()
}
