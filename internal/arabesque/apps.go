package arabesque

import (
	"fmt"

	"kaleido/internal/blisslike"
	"kaleido/internal/graph"
	"kaleido/internal/memtrack"
	"kaleido/internal/mni"
	"kaleido/internal/pattern"
)

// Options configures a baseline application run.
type Options struct {
	Threads int
	Tracker *memtrack.Tracker
}

func (o Options) threads() int {
	if o.Threads > 0 {
		return o.Threads
	}
	return 1
}

// PatternCount mirrors the Kaleido result type for cross-system comparison.
type PatternCount struct {
	Pattern *pattern.Pattern
	Count   uint64
	Support uint64
}

// TriangleCount counts triangles on the Arabesque-like engine: explore to
// 3-embeddings under a triangle filter, then count them (TLE style — no
// neighbor-intersection shortcut).
func TriangleCount(g *graph.Graph, opt Options) (uint64, error) {
	e, err := NewEngine(g, VertexInduced, opt.threads(), opt.Tracker)
	if err != nil {
		return 0, err
	}
	if err := e.Init(nil); err != nil {
		return 0, err
	}
	clique := func(emb []uint32, cand uint32) bool {
		for _, v := range emb {
			if !g.HasEdge(v, cand) {
				return false
			}
		}
		return true
	}
	for i := 0; i < 2; i++ {
		if err := e.Expand(clique); err != nil {
			return 0, err
		}
	}
	return e.Count()
}

// CliqueCount counts k-cliques.
func CliqueCount(g *graph.Graph, k int, opt Options) (uint64, error) {
	if k < 2 {
		return 0, fmt.Errorf("arabesque: clique size %d < 2", k)
	}
	e, err := NewEngine(g, VertexInduced, opt.threads(), opt.Tracker)
	if err != nil {
		return 0, err
	}
	if err := e.Init(nil); err != nil {
		return 0, err
	}
	clique := func(emb []uint32, cand uint32) bool {
		for _, v := range emb {
			if !g.HasEdge(v, cand) {
				return false
			}
		}
		return true
	}
	for i := 1; i < k; i++ {
		if err := e.Expand(clique); err != nil {
			return 0, err
		}
	}
	return e.Count()
}

// MotifCount counts k-motifs: full exploration to k, then pattern
// aggregation with the bliss-like canonical labeler (Arabesque's backend).
func MotifCount(g *graph.Graph, k int, opt Options) ([]PatternCount, error) {
	if k < 2 || k > pattern.MaxK {
		return nil, fmt.Errorf("arabesque: motif size %d out of [2,%d]", k, pattern.MaxK)
	}
	e, err := NewEngine(g, VertexInduced, opt.threads(), opt.Tracker)
	if err != nil {
		return nil, err
	}
	if err := e.Init(nil); err != nil {
		return nil, err
	}
	for i := 1; i < k; i++ {
		if err := e.Expand(nil); err != nil {
			return nil, err
		}
	}
	nw := opt.threads()
	type agg struct {
		pat   *pattern.Pattern
		count uint64
	}
	maps := make([]map[uint64]*agg, nw)
	for i := range maps {
		maps[i] = map[uint64]*agg{}
	}
	err = e.ForEach(func(w int, emb []uint32) error {
		p, err := unlabeledPattern(g, emb)
		if err != nil {
			return err
		}
		h := blisslike.Hash(p)
		if a, ok := maps[w][h]; ok {
			a.count++
		} else {
			maps[w][h] = &agg{pat: p, count: 1}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	merged := map[uint64]*agg{}
	for _, m := range maps {
		for h, a := range m {
			if prev, ok := merged[h]; ok {
				prev.count += a.count
			} else {
				merged[h] = a
			}
		}
	}
	var out []PatternCount
	for _, a := range merged {
		out = append(out, PatternCount{Pattern: a.pat, Count: a.count})
	}
	sortCounts(out)
	return out, nil
}

// FSM mines frequent subgraphs (k−1 edges, ≤ k vertices) edge-induced with
// MNI support, pruning by Rebuild after each superstep's aggregation.
func FSM(g *graph.Graph, k int, support uint64, opt Options) ([]PatternCount, error) {
	if k < 2 || k > pattern.MaxK {
		return nil, fmt.Errorf("arabesque: FSM size %d out of [2,%d]", k, pattern.MaxK)
	}
	if support == 0 {
		return nil, fmt.Errorf("arabesque: FSM support must be positive")
	}
	freqPairs, pairs := mni.EdgePairs(g, support)
	if k == 2 {
		var result []PatternCount
		for _, pr := range pairs {
			result = append(result, PatternCount{Pattern: pr.Pattern(), Count: pr.Count, Support: pr.Support})
		}
		sortCounts(result)
		return result, nil
	}
	e, err := NewEngine(g, EdgeInduced, opt.threads(), opt.Tracker)
	if err != nil {
		return nil, err
	}
	err = e.Init(freqPairs.Has)
	if err != nil {
		return nil, err
	}
	filter := func(emb []uint32, cand uint32) bool {
		if !freqPairs.Has(cand) {
			return false
		}
		ed := g.EdgeAt(cand)
		// Vertex budget: distinct vertices of emb + new endpoints ≤ k.
		var buf [2 * pattern.MaxK]uint32
		verts := Vertices(g, emb, buf[:0])
		nv := 0
		if !containsSorted(verts, ed.U) {
			nv++
		}
		if !containsSorted(verts, ed.V) {
			nv++
		}
		return len(verts)+nv <= k
	}
	var result []PatternCount
	for level := 2; level <= k-1; level++ {
		if err := e.Expand(filter); err != nil {
			return nil, err
		}
		merged, err := aggregate(g, e, support, opt)
		if err != nil {
			return nil, err
		}
		if level < k-1 {
			keep := func(_ int, emb []uint32) bool {
				p, _, err := edgePattern(g, emb)
				if err != nil {
					return false
				}
				p.SortByLabelDegree()
				agg, ok := merged[blisslike.Hash(p)]
				return ok && agg.Frequent()
			}
			if err := e.Rebuild(keep); err != nil {
				return nil, err
			}
			continue
		}
		for _, agg := range merged {
			if !agg.Frequent() {
				continue
			}
			// Saturated at the threshold, as Kaleido reports it: the crossing
			// value depends on the order the workers' domains merged in.
			result = append(result, PatternCount{Pattern: agg.Pat, Count: agg.Count, Support: min(agg.Support(), support)})
		}
	}
	sortCounts(result)
	return result, nil
}

// aggregate maps each embedding to its pattern (bliss-like hash) and MNI
// domains, with per-worker maps merged by the reducer.
func aggregate(g *graph.Graph, e *Engine, support uint64, opt Options) (map[uint64]*mni.Agg, error) {
	nw := opt.threads()
	maps := make([]map[uint64]*mni.Agg, nw)
	for i := range maps {
		maps[i] = map[uint64]*mni.Agg{}
	}
	err := e.ForEach(func(w int, emb []uint32) error {
		p, verts, err := edgePattern(g, emb)
		if err != nil {
			return err
		}
		var perm [pattern.MaxK]uint8
		p.SortByLabelDegreeTracked(&perm)
		h := blisslike.Hash(p)
		agg, ok := maps[w][h]
		if !ok {
			agg = mni.NewAgg(p, g.N())
			maps[w][h] = agg
		}
		agg.Insert(verts, &perm, support)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return mni.MergeMaps(maps, support), nil
}

// edgePattern builds the labeled pattern of an edge-id tuple; verts[i] is
// the graph vertex at pattern index i (pre-sort).
func edgePattern(g *graph.Graph, emb []uint32) (*pattern.Pattern, []uint32, error) {
	var verts []uint32
	idx := func(v uint32) int {
		for i, u := range verts {
			if u == v {
				return i
			}
		}
		verts = append(verts, v)
		return len(verts) - 1
	}
	type pe struct{ a, b int }
	edges := make([]pe, len(emb))
	for i, eid := range emb {
		ed := g.EdgeAt(eid)
		edges[i] = pe{idx(ed.U), idx(ed.V)}
	}
	p, err := pattern.New(len(verts))
	if err != nil {
		return nil, nil, err
	}
	for i, v := range verts {
		p.Labels[i] = g.Label(v)
	}
	for i := range emb {
		p.SetEdge(edges[i].a, edges[i].b)
	}
	return p, verts, nil
}

func unlabeledPattern(g *graph.Graph, verts []uint32) (*pattern.Pattern, error) {
	p, err := pattern.New(len(verts))
	if err != nil {
		return nil, err
	}
	for i := 0; i < len(verts); i++ {
		for j := i + 1; j < len(verts); j++ {
			if g.HasEdge(verts[i], verts[j]) {
				p.SetEdge(i, j)
			}
		}
	}
	return p, nil
}

func sortCounts(out []PatternCount) {
	for i := 1; i < len(out); i++ {
		for j := i; j > 0; j-- {
			if out[j].Count > out[j-1].Count ||
				(out[j].Count == out[j-1].Count && out[j].Pattern.Encode() < out[j-1].Pattern.Encode()) {
				out[j], out[j-1] = out[j-1], out[j]
			} else {
				break
			}
		}
	}
}
