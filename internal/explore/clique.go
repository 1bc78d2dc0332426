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
// above a hub are nearly its whole list.
//
// The common neighbours are never computed: the CSE already stores them.
// The group a level holds under the clique P = ⟨v1..vl⟩ is P's extensions
// C(P) = Below(v1) ∩ … ∩ Below(vl), ascending (the level-2 group of v1 is
// Below(v1) itself). A worker walks each group in stored order and stamps
// every leaf into a per-worker graph.NeighborMarker after probing it, so
// while leaf u is probed the stamped set is the group's leaves before u.
// Every id of Below(u) lies below u, so the stamped entries of Below(u) are
// Below(u) ∩ C(P) — u's children, already sorted. The stamp needs every
// earlier leaf of the group: ExpandTo starts every Clique walk on a group
// boundary (alignToGroups), and FilterTop, which could store a strict
// subset of C(P), refuses a Clique explorer.
//
// The same argument, one level down, counts two levels without storing
// either (ExpandCountTwo, kClist's oriented count at the CSE frontier): a
// leaf v's children, found as above, form a group of their own, so a
// second per-worker marker stamps them in ascending order and each child
// u's children are the stamped entries of Below(u). CliqueCount(k) stores
// levels 1..k−2 and counts levels k−1 and k in one walk over level k−2.

import (
	"context"

	"kaleido/internal/graph"
	"kaleido/internal/storage"
)

// cliqueMarks are one worker's Clique-mode stamps: group holds the leaves
// of a group, kids the children of a leaf in a two-level count (allocated
// on the first one).
type cliqueMarks struct {
	group, kids *graph.NeighborMarker
}

// markersFor returns the worker's Clique-mode stamps.
func (e *Explorer) markersFor(worker int, two bool) (mk, kids *graph.NeighborMarker) {
	sc := &e.scratch[worker]
	if sc.marks == nil {
		sc.marks = &cliqueMarks{group: e.cfg.Graph.NewNeighborMarker()}
	}
	if two && sc.marks.kids == nil {
		sc.marks.kids = e.cfg.Graph.NewNeighborMarker()
	}
	return sc.marks.group, sc.marks.kids
}

// alignToGroups moves every interior chunk bound back to the start of the
// top-level group that contains it, so no Clique walk starts mid-group. A
// chunk may end up empty.
func alignToGroups(top *storage.HybridLevel, bounds []int) error {
	for i := 1; i < len(bounds)-1; i++ {
		g, err := top.ParentOf(bounds[i])
		if err != nil {
			return err
		}
		start, err := top.GroupStart(g)
		if err != nil {
			return err
		}
		bounds[i] = int(start)
	}
	return nil
}

// appendCliqueLeaf appends to children the children of the clique whose
// leaf emb[k-1] is u: the vertices of Below(u) that are stamped, in order.
// At k = 1 every neighbour below u qualifies.
func appendCliqueLeaf(g *graph.Graph, mk *graph.NeighborMarker, k int, u uint32, children []uint32) []uint32 {
	nb := g.Below(u)
	if k == 1 {
		return append(children, nb...)
	}
	for _, w := range nb {
		if mk.Marked(w) {
			children = append(children, w)
		}
	}
	return children
}

// countCliqueTwo returns the number of grandchildren of the clique whose
// leaf emb[k-1] is v, with neither level listed: v's children are the
// entries of Below(v) that mk stamps (all of them at k = 1), ascending; each
// child u adds the entries of Below(u) that kids stamps — the children below
// u, and every entry of Below(u) is below u, so they are u's children — and
// is then stamped into kids.
func countCliqueTwo(g *graph.Graph, mk, kids *graph.NeighborMarker, k int, v uint32) uint64 {
	kids.Begin()
	var n uint64
	for _, u := range g.Below(v) {
		if k > 1 && !mk.Marked(u) {
			continue
		}
		for _, w := range g.Below(u) {
			if kids.Marked(w) {
				n++
			}
		}
		kids.Mark(u)
	}
	return n
}

// expandCliques is expandRange's loop in Clique mode: a run that starts a
// group clears the stamp (a block-seam continuation keeps it); each leaf
// probes its below-neighbour list and is then stamped. Into a two-level
// CountSink (ExpandCountTwo) a leaf adds its grandchildren to the worker's
// counter and nothing is written; any other sink gets each leaf's children.
func (e *Explorer) expandCliques(ctx context.Context, w *storage.Walker, k, worker, chunk int, sink ExpandSink) error {
	x := &e.scratch[worker].x
	cs := sink.countsTwo()
	two := cs != nil
	g := e.cfg.Graph
	mk, kids := e.markersFor(worker, two)
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
			mk.Begin()
		}
		if two {
			var n uint64
			for _, v := range leaves {
				n += countCliqueTwo(g, mk, kids, k, v)
				mk.Mark(v)
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
			x.children = appendCliqueLeaf(g, mk, k, u, dst)
			mk.Mark(u)
			if err := sink.emit(worker, chunk, x); err != nil {
				return err
			}
		}
	}
	return w.Err()
}
