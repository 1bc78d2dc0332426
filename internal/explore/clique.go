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
// every leaf with its position in the group after probing it (a per-worker
// stamp per vertex, cliqueScratch), so while leaf u is probed the stamped
// set is the group's leaves before u.
// Every id of Below(u) lies below u, so the stamped entries of Below(u) are
// Below(u) ∩ C(P) — u's children, already sorted. The stamp needs every
// earlier leaf of the group: the walk driver starts every Clique expansion's
// chunk on a group boundary (cut, alignToGroups), and Clique mode refuses a
// filter, which could store a strict subset of C(P).
//
// One level down the same argument counts two levels without storing either
// (ExpandCountTwo, kClist's oriented count at the CSE frontier), on bit rows
// over the group. A leaf's children are the group's leaves before it, so
// while the walk stamps leaf C[i] it also builds C[i]'s row: bit j (j < i)
// is set ⇔ C[j] ∈ Below(C[i]), one branch-free pass over Below(C[i]) per
// row word, with a stamp that is each leaf's position in its group. The
// children of C[j] among C[i]'s children are then row_i & row_j, so C[i]'s
// grandchildren number Σ_{j ∈ row_i} popcount(row_i & row_j): one
// AND+POPCNT per child and row word, where a child would otherwise rescan
// its Below list under every leaf whose child it is. A group is a subset of
// one Below list, so rows of ⌈MaxBelow/64⌉ words hold any group (MaxBelow ≤
// √(2m) on a relabelled graph). At depth 1 a leaf v's children are all of
// Below(v): they are walked as a group of their own, each child counting
// its Below entries stamped before it. CliqueCount(k) stores levels 1..k−2
// and counts levels k−1 and k in one walk over level k−2.

import (
	"math"
	"math/bits"

	"kaleido/internal/graph"
	"kaleido/internal/storage"
)

// cliqueScratch is one worker's Clique-mode state: a position stamp per
// vertex and, for two-level counts, the rows of the current group.
type cliqueScratch struct {
	// stamp[v]−base is v's position in the current group when it is below
	// pos−base, the position of the group's next leaf. A stamp from an
	// earlier group, or 0, lies below base and so reads as more than
	// MaxBelow (see begin).
	stamp     []uint32
	base, pos uint32
	// top is the last position a group may start at, MaxUint32 − MaxBelow,
	// so that no group's stamps wrap (a test lowers it to wrap often).
	top uint32
	// rows holds row i of the group at rows[i*words:], the first i/64+1
	// words in use: bit j set ⇔ leaf j of the group is in Below(leaf i).
	rows  []uint64
	words int
}

// newCliqueScratch returns a Clique-mode scratch for g, without rows.
func newCliqueScratch(g *graph.Graph) *cliqueScratch {
	return &cliqueScratch{stamp: make([]uint32, g.N()), pos: 1, top: math.MaxUint32 - uint32(g.MaxBelow())}
}

// ensureRows allocates the rows of a two-level count: one per position of
// the widest group, MaxBelow·⌈MaxBelow/64⌉ words.
func (c *cliqueScratch) ensureRows(g *graph.Graph) {
	if c.rows == nil {
		c.words = (g.MaxBelow() + 63) / 64
		c.rows = make([]uint64, g.MaxBelow()*c.words)
	}
}

// cliqueFor returns the worker's Clique-mode scratch, with rows when two.
func (e *Explorer) cliqueFor(worker int, two bool) *cliqueScratch {
	sc := &e.scratch[worker]
	if sc.clique == nil {
		sc.clique = newCliqueScratch(e.cfg.Graph)
	}
	if two {
		sc.clique.ensureRows(e.cfg.Graph)
	}
	return sc.clique
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

// begin starts a group. Stamps never wrap inside one: when the group, at
// most MaxBelow leaves, could run past the largest stamp, every stamp is
// cleared and positions restart at 1. So base ≤ top, and a stale stamp
// s < base gives s−base ≥ 2³² − top > MaxBelow.
func (c *cliqueScratch) begin() {
	if c.pos > c.top {
		clear(c.stamp)
		c.pos = 1
	}
	c.base = c.pos
}

// mark stamps v as the group's next leaf.
func (c *cliqueScratch) mark(v uint32) {
	c.stamp[v] = c.pos
	c.pos++
}

// appendLeaf appends to children the children of the clique whose leaf is
// u, at depth k ≥ 2: the entries of Below(u) stamped in the current group,
// in order, which are the group's leaves before u.
func (c *cliqueScratch) appendLeaf(g *graph.Graph, u uint32, children []uint32) []uint32 {
	stamp, base, i := c.stamp, c.base, c.pos-c.base
	for _, w := range g.Below(u) {
		if stamp[w]-base < i {
			children = append(children, w)
		}
	}
	return children
}

// countLeaf stamps u, the group's next leaf at depth k ≥ 2, builds its row
// and returns its grandchildren: the edges among its children, each child
// j adding popcount(row_u & row_j). A bit j of row word t is a leaf whose
// own row has t+1 words, so the first word — every bit of a group up to 64
// leaves — ANDs one word per child, kept in a register. Rows carry over a
// block-seam continuation run, as the stamps do.
func (c *cliqueScratch) countLeaf(g *graph.Graph, u uint32) uint64 {
	stamp, rows, words := c.stamp, c.rows, c.words
	base, i := c.base, c.pos-c.base
	nb := g.Below(u)
	ri := rows[int(i)*words : int(i)*words+int(i>>6)+1]
	first := rowWord(stamp, nb, base, min(i, 64))
	ri[0] = first
	for t := 1; t < len(ri); t++ {
		lo := uint32(t) << 6
		ri[t] = rowWord(stamp, nb, base+lo, min(i-lo, 64))
	}
	stamp[u] = c.pos
	c.pos++
	var n uint64
	for w := first; w != 0; w &= w - 1 {
		n += uint64(bits.OnesCount64(first & rows[bits.TrailingZeros64(w)*words]))
	}
	for t := 1; t < len(ri); t++ {
		for w := ri[t]; w != 0; w &= w - 1 {
			rj := rows[(t<<6|bits.TrailingZeros64(w))*words:][:t+1]
			for q, y := range rj {
				n += uint64(bits.OnesCount64(y & ri[q]))
			}
		}
	}
	return n
}

// rowWord returns one word of a row: bit b set ⇔ some vertex of nb has the
// stamp lo+b, b < lim. One branch-free pass: an entry outside the word
// leaves the accumulator as it was.
//
// It is kept out of line: inlined into countLeaf, the compiler spills the
// accumulator to the stack on every entry.
//
//go:noinline
func rowWord(stamp, nb []uint32, lo, lim uint32) uint64 {
	var acc uint64
	for _, w := range nb {
		s := stamp[w] - lo
		b := acc | 1<<(s&63)
		if s < lim {
			acc = b
		}
	}
	return acc
}

// countTriangles returns the grandchildren of the depth-1 clique ⟨v⟩, the
// triangles whose top vertex is v: Below(v) is walked as a group of its
// own, each vertex adding its Below entries stamped before it — those
// in Below(v), as every entry of Below(u) lies below u.
func (c *cliqueScratch) countTriangles(g *graph.Graph, v uint32) uint64 {
	c.begin()
	stamp, base := c.stamp, c.base
	var n uint64
	for _, u := range g.Below(v) {
		i := c.pos - base
		for _, w := range g.Below(u) {
			if stamp[w]-base < i {
				n++
			}
		}
		c.mark(u)
	}
	return n
}

// expandCliques is expandChunk's loop in Clique mode: a run that starts a
// group begins a new stamp (a block-seam continuation keeps it); each leaf
// probes its below-neighbour list into o and is then stamped.
func (e *Explorer) expandCliques(c *chunkWalk, k int, o *leafOut) error {
	g := e.cfg.Graph
	cs := e.cliqueFor(c.worker, false)
	for {
		emb, from, leaves, ok := c.next()
		if !ok {
			return c.done()
		}
		if from < k {
			cs.begin()
		}
		for _, u := range leaves {
			emb[k-1] = u
			dst, err := o.dst()
			if err != nil {
				return err
			}
			if k == 1 {
				dst = append(dst, g.Below(u)...)
			} else {
				dst = cs.appendLeaf(g, u, dst)
				cs.mark(u)
			}
			if err := o.put(emb, dst); err != nil {
				return err
			}
		}
	}
}

// countCliquesTwo is ExpandCountTwo's loop over a chunk: it returns the
// grandchildren of the chunk's leaves, each leaf's counted on its group's
// bit rows (countLeaf; countTriangles at depth 1). Nothing is written.
func (e *Explorer) countCliquesTwo(c *chunkWalk) (uint64, error) {
	g, k := e.cfg.Graph, e.c.Depth()
	cs := e.cliqueFor(c.worker, true)
	var n uint64
	for {
		_, from, leaves, ok := c.next()
		if !ok {
			return n, c.done()
		}
		if from < k {
			cs.begin()
		}
		for _, v := range leaves {
			if k == 1 {
				n += cs.countTriangles(g, v)
			} else {
				n += cs.countLeaf(g, v)
			}
		}
	}
}
