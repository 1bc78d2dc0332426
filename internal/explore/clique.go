package explore

// Clique exploration: the third exploration unit, next to vertex- and
// edge-induced. A clique embedding is a strictly increasing vertex sequence
// in which every vertex neighbours every other — exactly what Definition 2
// admits under an all-ones adjacency mask, so every stored level is
// byte-identical to VertexInduced plus a clique filter. What differs is how a
// leaf finds its children. The union path merges N(v1) ∪ … ∪ N(vk) and then
// discards every candidate whose mask is not all-ones (98 % of them on the
// clique4-mem graph); the extensions of a clique are its vertices' *common*
// neighbours, a list that shrinks with depth (the kClist idea, Danisch et
// al., WWW 2018). Per run of leaves the prefix's common neighbours are
// stamped into a per-worker graph.NeighborMarker once; a leaf u then probes
// N(u) past u, and the stamped ids are its children, already sorted.

import (
	"context"

	"kaleido/internal/graph"
	"kaleido/internal/storage"
)

// cliqueState is one worker's Clique-mode state: common[l-1] holds
// N(v1) ∩ … ∩ N(vl) restricted to ids above vl — the extensions of the
// l-clique ⟨v1..vl⟩ — and mk stamps common[k-2], the candidates every leaf
// of the current run is probed against.
type cliqueState struct {
	g *graph.Graph
	// common[0] aliases the graph's own neighbour list; common[l-1] for l ≥ 2
	// lives in bufs[l-1].
	common, bufs [][]uint32
	mk           *graph.NeighborMarker
	// last is the largest stamped id (0 when nothing is stamped): a probe
	// past it cannot hit.
	last uint32
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

// forward returns the neighbours of v above v.
func (s *cliqueState) forward(v uint32) []uint32 {
	nb := s.g.Neighbors(v)
	return nb[firstAbove(nb, v):]
}

// firstAbove returns the smallest p with s[p] > v, for sorted s, galloping
// back from the end: O(log(len(s)−p)). Every public graph is relabelled
// hubs-first, so most vertices have few neighbours above them, and a search
// from the front would pay for the whole list below.
func firstAbove(s []uint32, v uint32) int {
	hi, step := len(s), 1 // s[hi:] > v
	for hi-step >= 0 && s[hi-step] > v {
		hi -= step
		step <<= 1
	}
	lo := 0
	if hi-step >= 0 {
		lo = hi - step + 1 // s[hi-step] <= v
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid] > v {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// refreshLevel recomputes common[l-1] from common[l-2] and the new vertex
// emb[l-1]. emb[l-1] is itself in common[l-2], so only the part of it past
// emb[l-1] can extend the longer clique.
func (s *cliqueState) refreshLevel(emb []uint32, l int) {
	v := emb[l-1]
	if l == 1 {
		s.common[0] = s.forward(v)
		return
	}
	prev := s.common[l-2]
	s.bufs[l-1] = intersectSorted(s.bufs[l-1][:0], prev[gallopGE(prev, 0, v+1):], s.forward(v))
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
	c := s.common[k-2]
	s.mk.Begin()
	for _, v := range c {
		s.mk.Mark(v)
	}
	s.last = 0
	if len(c) > 0 {
		s.last = c[len(c)-1]
	}
}

// appendLeaf appends to children the children of the clique whose leaf
// emb[k-1] is u: the vertices of N(u) past u that are stamped, in order. At
// k = 1 every neighbour past u qualifies. Requires a prior updatePrefix for
// the current run when k ≥ 2.
func (s *cliqueState) appendLeaf(k int, u uint32, children []uint32) []uint32 {
	nb := s.forward(u)
	if k == 1 {
		return append(children, nb...)
	}
	mk, last := s.mk, s.last
	for _, w := range nb {
		if w > last {
			break
		}
		if mk.Marked(w) {
			children = append(children, w)
		}
	}
	return children
}

// countLeaf is appendLeaf for a counting sink: the number of children, with
// nothing written.
func (s *cliqueState) countLeaf(k int, u uint32) uint64 {
	nb := s.forward(u)
	if k == 1 {
		return uint64(len(nb))
	}
	mk, last := s.mk, s.last
	var n uint64
	for _, w := range nb {
		if w > last {
			break
		}
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
// per leaf, probe its forward list. Into a CountSink a leaf adds its count to
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
			x.children = st.appendLeaf(k, u, x.children[:0])
			if err := sink.emit(worker, chunk, x); err != nil {
				return err
			}
		}
	}
	return w.Err()
}
