package explore

// The adjacency mask is the one fact the candidate merge hands to filters and
// sinks in place of graph probes, so these tests hold it to the definition —
// bit i ⇔ HasEdge(emb[i], cand) — on every (embedding, candidate) pair a
// filter ever sees, on every parent's own masks (embAdj[l] against emb[:l])
// a row visitor (ExpandVisitGroups) gets — one level past the stored top
// level — and on every row histogram it gets, which counts the parent's
// children by that mask; and pin the depth bound a bit per position implies.

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"kaleido/internal/graph"
	"kaleido/internal/run"
)

// hubGraph is a sparse random graph plus a few hubs, so that accumulated
// candidate lists meet both much shorter neighbor lists (the gallop kernel)
// and comparable ones (the linear kernel).
func hubGraph(t *testing.T, rng *rand.Rand, n, m, hubs, hubDeg, hubThreshold int) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(n)
	for i := 0; i < m; i++ {
		b.AddEdge(uint32(rng.Intn(n)), uint32(rng.Intn(n)))
	}
	for h := 0; h < hubs; h++ {
		hub := uint32(rng.Intn(n))
		for i := 0; i < hubDeg; i++ {
			b.AddEdge(hub, uint32(rng.Intn(n)))
		}
	}
	b.SetHubThreshold(hubThreshold)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestAdjMaskMatchesHasEdge(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for _, hubThreshold := range []int{-1, 4} { // hub bitset rows off / on
		for _, relabel := range []bool{false, true} {
			g := hubGraph(t, rng, 26, 22, 2, 14, hubThreshold)
			if (g.HubThreshold() > 0) != (hubThreshold > 0) {
				t.Fatalf("hub threshold %d: index threshold %d", hubThreshold, g.HubThreshold())
			}
			if relabel {
				var err error
				if g, err = graph.Relabel(g); err != nil {
					t.Fatal(err)
				}
			}
			for _, threads := range []int{1, 2, 4} {
				t.Run(fmt.Sprintf("hub%d/relabel=%v/threads%d", hubThreshold, relabel, threads), func(t *testing.T) {
					checkAdjMasks(t, g, &run.Env{Threads: threads})
					// Every part on disk: the walks decode blocks, and a run
					// may continue across a block seam.
					checkAdjMasks(t, g, &run.Env{Threads: threads, MemoryBudget: 1, SpillDir: t.TempDir()})
				})
			}
		}
	}
}

// checkAdjMasks expands g from depth 1 to 5 and, at each depth, checks every
// mask a filter receives (ExpandVisit, whose children must be the reference
// level) and every own mask and row histogram a row visitor receives
// (ExpandVisitGroups, whose parents are that reference level).
func checkAdjMasks(t *testing.T, g *graph.Graph, env *run.Env) {
	e, err := New(Config{Graph: g, Mode: VertexInduced, Env: env})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.InitVertices(nil); err != nil {
		t.Fatal(err)
	}
	var filtered, visited atomic.Int64
	filter := func(_ int, emb []uint32, cand, adj uint32) bool {
		filtered.Add(1)
		if want := refAdjMask(g, emb, cand); adj != want {
			t.Errorf("filter: emb %v cand %d: adj %b, want %b", emb, cand, adj, want)
		}
		return true
	}
	for depth := 1; depth <= 5; depth++ {
		want := refExpandVertex(g, collect(t, e), nil)
		var mu sync.Mutex
		var got [][]uint32
		err := e.ExpandVisit(bgCtx, filter, nil, func(_ int, emb []uint32, c uint32) error {
			visited.Add(1)
			mu.Lock()
			got = append(got, append(append([]uint32(nil), emb...), c))
			mu.Unlock()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if t.Failed() {
			t.FailNow()
		}
		sortEmbs(got)
		sortEmbs(want)
		if !embsEqual(got, want) {
			t.Fatalf("depth %d filter: %d children, reference %d: %s", depth, len(got), len(want), diffSample(got, want))
		}
		checkRows(t, e, g, depth, newRowRef(g, want, refExpandVertex(g, want, nil)))
		if err := e.Expand(bgCtx, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	if filtered.Load() == 0 || filtered.Load() != visited.Load() {
		t.Fatalf("filter saw %d candidates, visitor %d", filtered.Load(), visited.Load())
	}
}

// rowRef is what a row walk over a level of depth d is held to: every
// embedding of the reference level d+1, with the reference rows of its
// children (refRows of level d+2), and the size of level d+2. An embedding
// is keyed by its index in parents, found through its embHash.
type rowRef struct {
	parents [][]uint32
	at      map[uint64]int32 // embHash(parents[i]) → i
	adj     [][]uint32       // adj[i]: parents[i]'s own reference masks (refEmbAdj)
	rows    [][]uint32       // rows[i]: parents[i]'s reference rows, nil: no children
	seen    []atomic.Int32   // seen[i]: the last checkRows pass that visited parents[i]
	total   int
	pass    int32 // numbers the checkRows calls
}

// newRowRef builds the rowRef of the reference levels parents (d+1) and next
// (d+2).
func newRowRef(g *graph.Graph, parents, next [][]uint32) *rowRef {
	r := &rowRef{
		parents: parents,
		at:      embIndex(parents),
		seen:    make([]atomic.Int32, len(parents)),
		total:   len(next),
	}
	r.rows = refRows(g, r.find, len(parents), next)
	r.adj = make([][]uint32, len(parents))
	for i, p := range parents {
		r.adj[i] = refEmbAdj(g, p)
	}
	return r
}

// find returns the index of emb in r.parents, or -1.
func (r *rowRef) find(emb []uint32) int {
	if i, ok := r.at[embHash(emb)]; ok && slices.Equal(r.parents[i], emb) {
		return int(i)
	}
	return -1
}

// embHash mixes an embedding's vertices, in order, into 64 bits.
func embHash(emb []uint32) uint64 {
	h := uint64(len(emb))
	for _, v := range emb {
		h = (h ^ uint64(v)) * 0x9e3779b97f4a7c15
		h ^= h >> 29
	}
	return h
}

// embIndex maps the embHash of each of embs to its index. It panics on two
// embeddings with one hash: find could not tell them apart.
func embIndex(embs [][]uint32) map[uint64]int32 {
	at := make(map[uint64]int32, len(embs))
	for i, emb := range embs {
		h := embHash(emb)
		if j, dup := at[h]; dup {
			panic(fmt.Sprintf("embHash collision: %v and %v", embs[j], emb))
		}
		at[h] = int32(i)
	}
	return at
}

// checkRows walks the top level of e, depth d, into a row visitor
// (ExpandVisitGroups) and holds what it receives to ref: every embedding of
// the reference level d+1 is visited once and no other, its own masks are
// refAdjMask's, its rows are the histogram of refAdjMask over its reference
// children, and the rows of all visits sum to the size of level d+2. The
// visitor takes no lock: one map read of ref per visit, and atomics.
func checkRows(t *testing.T, e *Explorer, g *graph.Graph, d int, ref *rowRef) {
	t.Helper()
	ref.pass++
	pass := ref.pass
	var sum, visits atomic.Uint64
	var mu sync.Mutex
	var bad string
	err := e.ExpandVisitGroups(bgCtx, func(_ int, emb, embAdj, rows []uint32) error {
		var n uint64
		for _, c := range rows {
			n += uint64(c)
		}
		sum.Add(n)
		visits.Add(1)
		msg := ""
		i := ref.find(emb)
		switch {
		case len(emb) != d+1 || i < 0:
			msg = fmt.Sprintf("emb %v is no reference %d-embedding", emb, d+1)
		case ref.seen[i].Swap(pass) == pass:
			msg = fmt.Sprintf("emb %v visited twice", emb)
		default:
			if msg = embAdjMismatch(emb, embAdj, ref.adj[i]); msg == "" {
				msg = rowsMismatch(emb, rows, ref.rows[i])
			}
		}
		if msg != "" {
			mu.Lock()
			if bad == "" {
				bad = msg
			}
			mu.Unlock()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if bad != "" {
		t.Fatalf("depth %d row visitor: %s", d, bad)
	}
	if visits.Load() != uint64(len(ref.parents)) {
		t.Fatalf("depth %d: row visitor made %d visits, reference level %d holds %d", d, visits.Load(), d+1, len(ref.parents))
	}
	if sum.Load() != uint64(ref.total) {
		t.Fatalf("depth %d: rows sum to %d, reference level %d holds %d", d, sum.Load(), d+2, ref.total)
	}
}

// refRows returns the reference row histogram of each of n parents of
// next (a reference level), by the parent's index, which find returns:
// rows[i][m] counts parent i's children whose refAdjMask is m. A parent
// without children has a nil entry; every child's parent must be found.
func refRows(g *graph.Graph, find func([]uint32) int, n int, next [][]uint32) [][]uint32 {
	out := make([][]uint32, n)
	for _, c := range next {
		p := c[:len(c)-1]
		i := find(p)
		if out[i] == nil {
			out[i] = make([]uint32, 1<<len(p))
		}
		out[i][refAdjMask(g, p, c[len(c)-1])]++
	}
	return out
}

// rowsMismatch describes the first row of rows, a parent emb's histogram,
// that differs from want (nil: no children), or returns "".
func rowsMismatch(emb, rows, want []uint32) string {
	if len(rows) != 1<<len(emb) {
		return fmt.Sprintf("emb %v: %d rows", emb, len(rows))
	}
	for m, n := range rows {
		var w uint32
		if want != nil {
			w = want[m]
		}
		if n != w {
			return fmt.Sprintf("emb %v: rows[%b] = %d, want %d (rows %v, want %v)", emb, m, n, w, rows, want)
		}
	}
	return ""
}

// refEmbAdj returns an embedding's own masks by definition: entry l is
// refAdjMask(g, emb[:l], emb[l]).
func refEmbAdj(g *graph.Graph, emb []uint32) []uint32 {
	adj := make([]uint32, len(emb))
	for l, v := range emb {
		adj[l] = refAdjMask(g, emb[:l], v)
	}
	return adj
}

// embAdjMismatch describes the first of a parent's own masks that is not
// want's (refEmbAdj), or returns "" when all of them match.
func embAdjMismatch(emb, embAdj, want []uint32) string {
	if len(embAdj) != len(emb) {
		return fmt.Sprintf("emb %v: %d parent masks", emb, len(embAdj))
	}
	for l, m := range embAdj {
		if m != want[l] {
			return fmt.Sprintf("emb %v: embAdj[%d] = %b, want %b", emb, l, m, want[l])
		}
	}
	return ""
}

// refMergeFirstAdj is the position merge the masks replaced, kept as the
// oracle of the lowest set bit: candidates of a keep their first adjacent
// position, candidates only in b get bPos, ties keep a's.
func refMergeFirstAdj(aids []uint32, afa []uint16, b []uint32, bPos uint16) ([]uint32, []uint16) {
	var ids []uint32
	var fa []uint16
	i, j := 0, 0
	for i < len(aids) || j < len(b) {
		switch {
		case j == len(b) || i < len(aids) && aids[i] <= b[j]:
			if j < len(b) && aids[i] == b[j] {
				j++
			}
			ids, fa = append(ids, aids[i]), append(fa, afa[i])
			i++
		default:
			ids, fa = append(ids, b[j]), append(fa, bPos)
			j++
		}
	}
	return ids, fa
}

// TestMergeProvKernelsMatchPositionMerge runs both merge kernels on lists
// whose length ratio straddles gallopRatio: the ids and the lowest set bit of
// every mask equal the old position merge, and the mask is the OR of both
// sides.
func TestMergeProvKernelsMatchPositionMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	sortedList := func(n, universe int) []uint32 {
		seen := map[uint32]bool{}
		for len(seen) < n {
			seen[uint32(rng.Intn(universe))] = true
		}
		out := make([]uint32, 0, n)
		for v := uint32(0); int(v) < universe; v++ {
			if seen[v] {
				out = append(out, v)
			}
		}
		return out
	}
	kernels := map[string]func(ids, adj, aids, aadj, b []uint32, bBit uint32) int{
		"linear": mergeProvLinear, "gallop": mergeProvGallop,
	}
	for trial := 0; trial < 300; trial++ {
		bPos := uint16(1 + rng.Intn(maskBits-1))
		la, lb := rng.Intn(40), rng.Intn(12)
		aids, b := sortedList(la, 64), sortedList(lb, 64)
		afa, aadj := make([]uint16, la), make([]uint32, la)
		for i := range aids {
			afa[i] = uint16(rng.Intn(int(bPos)))
			aadj[i] = (1<<afa[i] | rng.Uint32()<<(afa[i]+1)) & (1<<bPos - 1) // lowest bit afa[i], nothing at or above bPos
		}
		wantIDs, wantFA := refMergeFirstAdj(aids, afa, b, bPos)
		inB := map[uint32]bool{}
		for _, v := range b {
			inB[v] = true
		}
		maskOf := map[uint32]uint32{}
		for i, v := range aids {
			maskOf[v] = aadj[i]
		}
		verify := func(name string, ids, adj []uint32) {
			if len(ids) != len(wantIDs) || len(adj) != len(ids) {
				t.Fatalf("trial %d %s: %d ids, %d masks, want %d", trial, name, len(ids), len(adj), len(wantIDs))
			}
			for i, v := range ids {
				want := maskOf[v]
				if inB[v] {
					want |= 1 << bPos
				}
				if v != wantIDs[i] || adj[i] != want || bits.TrailingZeros32(adj[i]) != int(wantFA[i]) {
					t.Fatalf("trial %d %s: [%d] = (%d, %b), want (%d, %b) with first position %d",
						trial, name, i, v, adj[i], wantIDs[i], want, wantFA[i])
				}
			}
		}
		for name, kernel := range kernels {
			ids, adj := make([]uint32, la+lb), make([]uint32, la+lb)
			n := kernel(ids, adj, aids, aadj, b, 1<<bPos)
			verify(name, ids[:n], adj[:n])
		}
		var dst candBuf
		mergeUnionProv(&dst, &candBuf{ids: aids, adj: aadj}, b, 1<<bPos)
		verify("dispatch", dst.ids, dst.adj)
	}
}

// TestEdgeMaskLowestBitIsFirstAdjacentEdge: edge-induced candidates enter
// only through new endpoints, so their masks are partial — but the lowest set
// bit, the only one read, is the first embedding edge sharing an endpoint.
func TestEdgeMaskLowestBitIsFirstAdjacentEdge(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	g := hubGraph(t, rng, 20, 24, 1, 10, -1)
	e, err := New(Config{Graph: g, Mode: EdgeInduced, Env: &run.Env{Threads: 2}})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.InitEdges(nil); err != nil {
		t.Fatal(err)
	}
	for depth := 1; depth <= 3; depth++ {
		st := newEdgeState(g, depth)
		for _, emb := range collect(t, e) {
			st.update(emb, 1)
			c := st.candidates(depth)
			for i, f := range c.ids {
				fe, first := g.EdgeAt(f), -1
				for p, eid := range emb {
					pe := g.EdgeAt(eid)
					if pe.U == fe.U || pe.U == fe.V || pe.V == fe.U || pe.V == fe.V {
						first = p
						break
					}
				}
				if m := c.adj[i]; first < 0 || bits.TrailingZeros32(m) != first || m>>depth != 0 {
					t.Fatalf("emb %v cand %d: mask %b, first adjacent position %d", emb, f, m, first)
				}
			}
		}
		if err := e.Expand(bgCtx, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
}

// TestExpandBeyondMaskWidth walks a path graph — O(n) embeddings per level at
// any depth — up to the mask width in both modes: every level matches the
// reference enumeration, the expansion past the width fails with an error,
// and the levels built before it stay usable — and in Clique mode, where the
// two-level count stops one level earlier.
func TestExpandBeyondMaskWidth(t *testing.T) {
	const n = maskBits + 8
	b := graph.NewBuilder(n)
	for v := uint32(0); v+1 < n; v++ {
		b.AddEdge(v, v+1)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []Mode{VertexInduced, EdgeInduced} {
		e, err := New(Config{Graph: g, Mode: mode, Env: &run.Env{Threads: 2}})
		if err != nil {
			t.Fatal(err)
		}
		units := g.N()
		if mode == EdgeInduced {
			units = g.M()
			err = e.InitEdges(nil)
		} else {
			err = e.InitVertices(nil)
		}
		if err != nil {
			t.Fatal(err)
		}
		ref := collect(t, e)
		for depth := 2; depth <= maskBits; depth++ {
			if err := e.Expand(bgCtx, nil, nil); err != nil {
				t.Fatalf("mode %d: expand to depth %d: %v", mode, depth, err)
			}
			if mode == EdgeInduced {
				ref = refExpandEdge(g, ref)
			} else {
				ref = refExpandVertex(g, ref, nil)
			}
			sortEmbs(ref)
			if got := collect(t, e); !embsEqual(got, ref) || len(got) != units-depth+1 {
				t.Fatalf("mode %d depth %d: %d embeddings, reference %d, want %d: %s",
					mode, depth, len(got), len(ref), units-depth+1, diffSample(got, ref))
			}
		}
		for _, op := range []func() error{
			func() error { return e.Expand(bgCtx, nil, nil) },
			func() error { _, err := e.ExpandCount(bgCtx, nil, nil); return err },
		} {
			if err := op(); err == nil || !strings.Contains(err.Error(), "cannot expand past") {
				t.Fatalf("mode %d: expansion past the mask width returned %v", mode, err)
			}
		}
		if e.Depth() != maskBits || !embsEqual(collect(t, e), ref) {
			t.Fatalf("mode %d: top level changed by the refused expansion", mode)
		}
		if _, err := e.ExpandCountTwo(bgCtx); err == nil || !strings.Contains(err.Error(), "needs clique exploration") {
			t.Fatalf("mode %d: two-level count returned %v", mode, err)
		}
		e.Close()
	}

	// A Clique run stores no clique past the path's edges, but its depth
	// grows: the two-level count, whose cliques are two units past the top
	// level, stops one level below the width.
	e, err := New(Config{Graph: g, Mode: Clique, Env: &run.Env{Threads: 2}})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.InitVertices(nil); err != nil {
		t.Fatal(err)
	}
	for e.Depth() < maskBits-2 {
		if err := e.Expand(bgCtx, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	if n, err := e.ExpandCountTwo(bgCtx); err != nil || n != 0 {
		t.Fatalf("two-level count to the width: %d, %v", n, err)
	}
	if err := e.Expand(bgCtx, nil, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := e.ExpandCountTwo(bgCtx); err == nil || !strings.Contains(err.Error(), "cannot expand past") {
		t.Fatalf("two-level count past the mask width returned %v", err)
	}
	if n, err := e.ExpandCount(bgCtx, nil, nil); err != nil || n != 0 {
		t.Fatalf("count to the width: %d, %v", n, err)
	}
}

// TestCountRowsOnlyVertexInduced: a row walk refuses the modes whose masks
// it cannot count (edge-induced, Clique) and a top level whose visits —
// one level further down — would pass maxRowDepth, with the CSE left as it
// was, and visits embeddings of exactly maxRowDepth units.
func TestCountRowsOnlyVertexInduced(t *testing.T) {
	g := paperGraph(t)
	visit := func(int, []uint32, []uint32, []uint32) error { return nil }
	for _, mode := range []Mode{EdgeInduced, Clique} {
		e, err := New(Config{Graph: g, Mode: mode, Env: &run.Env{Threads: 2}})
		if err != nil {
			t.Fatal(err)
		}
		if mode == EdgeInduced {
			err = e.InitEdges(nil)
		} else {
			err = e.InitVertices(nil)
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := e.ExpandVisitGroups(bgCtx, visit); err == nil || !strings.Contains(err.Error(), "vertex-induced") {
			t.Fatalf("mode %d: row walk returned %v", mode, err)
		}
		if e.Depth() != 1 {
			t.Fatalf("mode %d: refused row walk changed the depth to %d", mode, e.Depth())
		}
		e.Close()
	}

	const n = maxRowDepth + 4
	b := graph.NewBuilder(n)
	for v := uint32(0); v+1 < n; v++ {
		b.AddEdge(v, v+1)
	}
	path, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	e := newVertexExplorer(t, path, 2)
	for e.Depth() < maxRowDepth-1 {
		if err := e.Expand(bgCtx, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	var sum, visits atomic.Int64
	err = e.ExpandVisitGroups(bgCtx, func(_ int, emb, _, rows []uint32) error {
		if len(emb) == maxRowDepth && len(rows) == 1<<maxRowDepth {
			visits.Add(1)
		}
		for _, r := range rows {
			sum.Add(int64(r))
		}
		return nil
	})
	// The visits are the n−maxRowDepth+1 subpaths of maxRowDepth vertices;
	// their rows count the subpaths one vertex longer.
	if err != nil || visits.Load() != n-maxRowDepth+1 || sum.Load() != n-maxRowDepth {
		t.Fatalf("depth %d: row walk made %d visits of %d units and counted %d children (%v), want %d and %d",
			maxRowDepth-1, visits.Load(), maxRowDepth, sum.Load(), err, n-maxRowDepth+1, n-maxRowDepth)
	}
	if err := e.Expand(bgCtx, nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := e.ExpandVisitGroups(bgCtx, visit); err == nil || !strings.Contains(err.Error(), "row histograms stop") {
		t.Fatalf("depth %d: row walk returned %v", maxRowDepth, err)
	}
	if e.Depth() != maxRowDepth {
		t.Fatalf("refused row walk changed the depth to %d", e.Depth())
	}
}
