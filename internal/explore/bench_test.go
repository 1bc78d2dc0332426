package explore

// Micro-benchmarks of the loops every expansion spends its time in: the
// provenance merge that maintains the per-level candidate sets (once per run
// of leaves) and the fused leaf merge + canonical filter (once per leaf),
// both reported in ns per candidate — per element of the union they produce
// or consume — and the Clique-mode leaf, in ns per leaf (and, for the
// two-level count, per counted clique). None may allocate in the steady
// state.

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"kaleido/internal/gen"
	"kaleido/internal/graph"
	"kaleido/internal/run"
	"kaleido/internal/storage"
)

func benchGraph(b *testing.B) *graph.Graph {
	b.Helper()
	g, err := gen.PowerLaw(gen.Config{N: 4000, M: 24000, Alpha: 2.1, Seed: 11})
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// BenchmarkMergeUnionProv measures one provenance merge per op on each
// kernel, into the hub's neighbor list: linear merges the second-largest
// list (comparable length), gallop a median one (ratio past gallopRatio).
func BenchmarkMergeUnionProv(b *testing.B) {
	g := benchGraph(b)
	order := make([]uint32, g.N())
	for v := range order {
		order[v] = uint32(v)
	}
	sort.Slice(order, func(i, j int) bool { return g.Degree(order[i]) > g.Degree(order[j]) })
	var a, dst candBuf
	a.setAll(g.Neighbors(order[0]))
	for _, c := range []struct {
		name string
		nb   []uint32
	}{{"linear", g.Neighbors(order[1])}, {"gallop", g.Neighbors(order[len(order)/2])}} {
		if gallops := len(a.ids) >= gallopRatio*len(c.nb); gallops != (c.name == "gallop") {
			b.Fatalf("%s: lists of %d and %d run the other kernel", c.name, len(a.ids), len(c.nb))
		}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			mergeUnionProv(&dst, &a, c.nb, 2) // size dst once
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mergeUnionProv(&dst, &a, c.nb, 2)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(dst.ids)), "ns/candidate")
		})
	}
}

// BenchmarkAppendCanonical measures the fused leaf over the stored
// 3-embeddings of a power-law graph, one op per parent embedding, in three
// uses: no filter into a storing sink (store: appendStored writing through
// the explorer's unbudgeted part writer, NextGroup to CommitGroup, the level
// finished and closed every 1<<14 groups) or a counting sink (nofilter), and
// a filter that reads the adjacency mask (the clique filter). The prefix
// filter is paid once per run of leaves, as in the expansion. ns/candidate
// divides by the size of the leaf's candidate set |cands[k-1]|, which the
// leaf no longer walks; ns/child divides by the children it emits or counts,
// which the merging leaves walk; ns/leaf is the op itself.
//
// The fourth case, rows, is the row walk's leaf of 4-motif counting
// (expandLeafRows): one op per stored 2-embedding, the parents of those
// 3-embeddings — its child list (childList), one row count per child
// (countRows) and the unstamp. ns/child is per counted 3-embedding, the
// figure comparable across row walks; ns/leaf is the op.
func BenchmarkAppendCanonical(b *testing.B) {
	g := benchGraph(b)
	e, err := New(Config{Graph: g, Mode: VertexInduced, Env: &run.Env{Threads: 1}})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	if err := e.InitVertices(nil); err != nil {
		b.Fatal(err)
	}
	const k = 3
	for e.Depth() < k {
		if err := e.Expand(bgCtx, nil, nil); err != nil {
			b.Fatal(err)
		}
	}
	var embs [][k]uint32
	var cands int
	err = e.ForEach(bgCtx, func(_ int, emb []uint32) error {
		if len(embs) < 1<<14 {
			embs = append(embs, [k]uint32(emb))
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
	st := newVertexState(g, k)
	for i := range embs {
		st.update(embs[i][:], 1)
		cands += len(st.candidates(k).ids)
	}
	perParent := float64(cands) / float64(len(embs))

	// store writes one leaf's children through an unbudgeted builder wired
	// as an unbudgeted explorer wires it, one part, len(embs) groups a level.
	hb := storage.NewHybridLevelBuilder(&run.Env{}, "", nil, math.MaxInt64)
	hb.Reset(k+1, 1, nil)
	defer func() { hb.Abort() }()
	groups := 0
	store := func(b *testing.B, emb []uint32) int {
		p := hb.Part(0)
		buf, err := p.NextGroup()
		if err != nil {
			b.Fatal(err)
		}
		n := len(buf)
		buf = st.appendStored(k, emb[k-1], emb[0], buf)
		n = len(buf) - n
		p.CommitGroup(buf)
		if groups++; groups == len(embs) {
			b.StopTimer()
			if err := p.Flush(); err != nil {
				b.Fatal(err)
			}
			lvl, err := hb.Finish()
			if err != nil {
				b.Fatal(err)
			}
			lvl.Close()
			hb.Reset(k+1, 1, nil)
			groups = 0
			b.StartTimer()
		}
		return n
	}

	all := func(_ int, emb []uint32, _, adj uint32) bool { return adj == 1<<len(emb)-1 }
	for _, c := range []struct {
		name string
		vf   VertexFilter
	}{{"store", nil}, {"nofilter", nil}, {"maskfilter", all}} {
		b.Run(c.name, func(b *testing.B) {
			var buf []uint32
			var emb [k]uint32
			step := func(i int) int {
				next := embs[i%len(embs)]
				from := 1
				for from < k && i > 0 && next[from-1] == emb[from-1] {
					from++
				}
				emb = next
				if from < k {
					st.updatePrefix(emb[:], from, k)
				}
				switch {
				case c.name == "store":
					return store(b, emb[:])
				case c.vf == nil:
					buf = st.appendStored(k, emb[k-1], emb[0], buf[:0])
				default:
					buf = st.appendCanonical(k, emb[k-1], emb[:], 0, c.vf, buf[:0])
				}
				return len(buf)
			}
			var children int
			for i := range embs {
				children += step(i) // grow the pooled buffers to their steady-state size
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step(i)
			}
			ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
			b.ReportMetric(ns/perParent, "ns/candidate")
			b.ReportMetric(ns*float64(len(embs))/float64(children), "ns/child")
			b.ReportMetric(ns, "ns/leaf")
		})
	}

	const d = k - 1
	var leaves [][d]uint32
	for i := range embs {
		if p := [d]uint32(embs[i][:d]); i == 0 || p != leaves[len(leaves)-1] {
			leaves = append(leaves, p)
		}
	}
	rst := newVertexState(g, d+1)
	b.Run("rows", func(b *testing.B) {
		rows := make([]uint32, 2<<d)
		var emb [d]uint32
		step := func(i int) int {
			next := leaves[i%len(leaves)]
			if i == 0 || [d - 1]uint32(next[:d-1]) != [d - 1]uint32(emb[:d-1]) {
				rst.updatePrefix(next[:], 1, d)
			}
			emb = next
			rst.childList(d, emb[d-1], emb[0])
			for t := range rst.kids.ids {
				rst.countRows(d+1, t, emb[0], rows)
			}
			rst.unstamp(d)
			return len(rst.kids.ids)
		}
		var children int
		for i := range leaves {
			children += step(i) // grow the pooled buffers to their steady-state size
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			step(i)
		}
		ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
		b.ReportMetric(ns*float64(len(leaves))/float64(children), "ns/child")
		b.ReportMetric(ns, "ns/leaf")
	})
}

// BenchmarkCliqueLeaf measures the Clique-mode leaf over the power-law
// graph, one op per leaf: count2 — the final walk of Cliques(4), over the
// stored 2-cliques: each leaf stamped, its row built and its children's
// rows ANDed with it, nothing written, reported per counted 4-clique
// (ns/clique) as well; count2-wide — the same over wideCliqueGraph, whose
// planted clique's groups reach past one row word; store — over the stored
// 3-cliques, children appended; and, as the baseline the common-neighbour
// probe replaced, union — the vertex-induced fused leaf merge under the
// all-ones mask filter, over the 3-cliques the union path stores (the same
// cliques, grown upward). The Clique leaves replay their stored groups as
// the expansion does: the stamp begins per group and grows by each leaf
// after it is probed; the union leaf refreshes its prefix once per group.
func BenchmarkCliqueLeaf(b *testing.B) {
	g, wide := benchGraph(b), wideCliqueGraph(b)
	all := func(_ int, emb []uint32, _, adj uint32) bool { return adj == 1<<len(emb)-1 }
	// stored returns the first 1<<14 d-embeddings mode stores over g under
	// vf, in stored order.
	stored := func(g *graph.Graph, mode Mode, vf VertexFilter, d int) (embs [][]uint32) {
		e, err := New(Config{Graph: g, Mode: mode, Env: &run.Env{Threads: 1}})
		if err != nil {
			b.Fatal(err)
		}
		defer e.Close()
		if err := e.InitVertices(nil); err != nil {
			b.Fatal(err)
		}
		for e.Depth() < d {
			if err := e.Expand(bgCtx, vf, nil); err != nil {
				b.Fatal(err)
			}
		}
		err = e.ForEach(bgCtx, func(_ int, emb []uint32) error {
			if len(embs) < 1<<14 {
				embs = append(embs, slices.Clone(emb))
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
		return embs
	}
	pairs, widePairs := stored(g, Clique, nil, 2), stored(wide, Clique, nil, 2)
	cliques, union := stored(g, Clique, nil, 3), stored(g, VertexInduced, all, 3)
	cs, wcs, vst := newCliqueScratch(g), newCliqueScratch(wide), newVertexState(g, 3)
	cs.ensureRows(g)
	wcs.ensureRows(wide)
	var sum uint64
	count2 := func(g *graph.Graph, c *cliqueScratch) func(emb []uint32, from int) {
		return func(emb []uint32, from int) {
			if from < 2 {
				c.begin()
			}
			sum += c.countLeaf(g, emb[1])
		}
	}
	var children []uint32
	for _, c := range []struct {
		name string
		embs [][]uint32
		leaf func(emb []uint32, from int)
	}{
		{"count2", pairs, count2(g, cs)},
		{"count2-wide", widePairs, count2(wide, wcs)},
		{"store", cliques, func(emb []uint32, from int) {
			if from < 3 {
				cs.begin()
			}
			children = cs.appendLeaf(g, emb[2], children[:0])
			cs.mark(emb[2])
		}},
		{"union", union, func(emb []uint32, from int) {
			if from < 3 {
				vst.updatePrefix(emb, from, 3)
			}
			children = vst.appendCanonical(3, emb[2], emb, 0, all, children[:0])
		}},
	} {
		b.Run(c.name, func(b *testing.B) {
			embs := c.embs
			k := len(embs[0])
			emb := make([]uint32, k)
			step := func(i int) {
				next := embs[i%len(embs)]
				from := 1
				for from < k && i > 0 && next[from-1] == emb[from-1] {
					from++
				}
				copy(emb, next)
				c.leaf(emb, from)
			}
			for i := range embs {
				step(i) // grow the pooled buffers to their steady-state size
			}
			b.ReportAllocs()
			before := sum
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step(i)
			}
			ns := float64(b.Elapsed().Nanoseconds())
			b.ReportMetric(ns/float64(b.N), "ns/leaf")
			if counted := sum - before; counted > 0 {
				b.ReportMetric(ns/float64(counted), "ns/clique")
			}
		})
	}
	cliqueLeafSink = sum
}

// cliqueLeafSink keeps the counting leaves' result live.
var cliqueLeafSink uint64

// wideCliqueGraph is a sparse relabelled power-law graph with a planted
// 130-clique: its vertices' level-2 groups run up to 129 leaves, three row
// words.
func wideCliqueGraph(b *testing.B) *graph.Graph {
	b.Helper()
	base, err := gen.PowerLaw(gen.Config{N: 4000, M: 24000, Alpha: 2.1, Seed: 11})
	if err != nil {
		b.Fatal(err)
	}
	gb := graph.NewBuilder(base.N())
	for _, e := range base.Edges() {
		gb.AddEdge(e.U, e.V)
	}
	members := rand.New(rand.NewSource(3)).Perm(base.N())[:130]
	for i, u := range members {
		for _, v := range members[i+1:] {
			gb.AddEdge(uint32(u), uint32(v))
		}
	}
	g, err := gb.Build()
	if err != nil {
		b.Fatal(err)
	}
	if g, err = graph.Relabel(g); err != nil {
		b.Fatal(err)
	}
	if g.MaxBelow() <= 64 {
		b.Fatalf("widest group %d fits one row word", g.MaxBelow())
	}
	return g
}
