package rstream

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync"

	"kaleido/internal/blisslike"
	"kaleido/internal/graph"
	"kaleido/internal/mni"
	"kaleido/internal/pattern"
)

// PatternCount mirrors the Kaleido result type for cross-system comparison.
type PatternCount struct {
	Pattern *pattern.Pattern
	Count   uint64
	Support uint64
}

// TriangleCount counts triangles with RStream's dedicated strategy (§6.2
// notes TC bypasses the relational path): edges stream through partitions
// and each counts common neighbors beyond the larger endpoint.
func TriangleCount(g *graph.Graph, opt Options) (uint64, Stats, error) {
	e, err := newEngine(g, opt)
	if err != nil {
		return 0, Stats{}, err
	}
	defer e.close()
	t, err := e.initEdges(nil)
	if err != nil {
		return 0, e.stats, err
	}
	defer t.remove()
	counts := make([]uint64, e.threads)
	err = e.scanAll(t, func(w int, tuple []uint32) error {
		ed := g.EdgeAt(tuple[0])
		nu, nv := g.Neighbors(ed.U), g.Neighbors(ed.V)
		i, j := 0, 0
		for i < len(nu) && j < len(nv) {
			switch {
			case nu[i] < nv[j]:
				i++
			case nu[i] > nv[j]:
				j++
			default:
				if nu[i] > ed.V {
					counts[w]++
				}
				i++
				j++
			}
		}
		return nil
	})
	var total uint64
	for _, c := range counts {
		total += c
	}
	return total, e.stats, err
}

// CliqueCount discovers k-cliques with RStream's edge-induced trick (§6.2):
// k−1 join iterations keep only tuples whose vertex sets are cliques, then
// distinct k-vertex sets are counted. Each clique is reached through many
// spanning edge subsets, so the joins produce substantial intermediate data
// — the behaviour the paper measures (51.2 GB for 4-clique over MiCo).
func CliqueCount(g *graph.Graph, k int, opt Options) (uint64, Stats, error) {
	if k < 3 {
		return 0, Stats{}, fmt.Errorf("rstream: clique size %d < 3", k)
	}
	e, err := newEngine(g, opt)
	if err != nil {
		return 0, Stats{}, err
	}
	defer e.close()
	t, err := e.initEdges(nil)
	if err != nil {
		return 0, e.stats, err
	}
	cliqueEmit := func(verts, tuple []uint32, cand uint32) bool {
		ed := g.EdgeAt(cand)
		nv := countNew(verts, ed)
		if len(verts)+nv > k {
			return false
		}
		// Both endpoints must connect to every existing vertex or be one.
		for _, v := range verts {
			if v != ed.U && !g.HasEdge(v, ed.U) {
				return false
			}
			if v != ed.V && !g.HasEdge(v, ed.V) {
				return false
			}
		}
		return true
	}
	for l := 2; l <= k-1; l++ {
		raw, err := e.join(t, cliqueEmit)
		if err != nil {
			return 0, e.stats, err
		}
		t.remove()
		t, err = e.shuffle(raw, nil)
		if err != nil {
			return 0, e.stats, err
		}
	}
	defer t.remove()
	// Aggregate: count distinct k-vertex sets.
	sets := make([]map[string]struct{}, e.threads)
	for i := range sets {
		sets[i] = map[string]struct{}{}
	}
	err = e.scanAll(t, func(w int, tuple []uint32) error {
		verts := vertexSet(g, tuple, nil)
		if len(verts) != k {
			return nil
		}
		key := make([]byte, 0, 4*k)
		for _, v := range verts {
			key = append(key, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
		}
		sets[w][string(key)] = struct{}{}
		return nil
	})
	if err != nil {
		return 0, e.stats, err
	}
	merged := map[string]struct{}{}
	for _, s := range sets {
		for k := range s {
			merged[k] = struct{}{}
		}
	}
	return uint64(len(merged)), e.stats, nil
}

// MotifCount counts k-motifs through edge-induced exploration: because
// RStream cannot expand by vertices (§1.2), it iterates up to C(k,2) joins —
// 6 iterations for 4-motifs — and at each level counts tuples that span
// exactly k vertices and are closed (the tuple is the full induced edge set,
// so each induced subgraph is counted exactly once at its edge count).
func MotifCount(g *graph.Graph, k int, opt Options) ([]PatternCount, Stats, error) {
	if k < 2 || k > pattern.MaxK {
		return nil, Stats{}, fmt.Errorf("rstream: motif size %d out of [2,%d]", k, pattern.MaxK)
	}
	e, err := newEngine(g, opt)
	if err != nil {
		return nil, Stats{}, err
	}
	defer e.close()
	t, err := e.initEdges(nil)
	if err != nil {
		return nil, e.stats, err
	}
	budget := func(verts, tuple []uint32, cand uint32) bool {
		return len(verts)+countNew(verts, g.EdgeAt(cand)) <= k
	}
	maxEdges := k * (k - 1) / 2
	type agg struct {
		pat   *pattern.Pattern
		count uint64
	}
	maps := make([]map[uint64]*agg, e.threads)
	for i := range maps {
		maps[i] = map[uint64]*agg{}
	}
	countLevel := func(t *table) error {
		return e.scanAll(t, func(w int, tuple []uint32) error {
			verts := vertexSet(g, tuple, nil)
			if len(verts) != k {
				return nil
			}
			induced := 0
			for i := 0; i < k; i++ {
				for j := i + 1; j < k; j++ {
					if g.HasEdge(verts[i], verts[j]) {
						induced++
					}
				}
			}
			if induced != len(tuple) {
				return nil // not closed: counted at its full edge level
			}
			p, err := inducedPattern(g, verts)
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
	}
	if k == 2 {
		maxEdges = 1
	}
	for l := 1; l <= maxEdges; l++ {
		if l > 1 {
			raw, err := e.join(t, budget)
			if err != nil {
				return nil, e.stats, err
			}
			t.remove()
			t, err = e.shuffle(raw, nil)
			if err != nil {
				return nil, e.stats, err
			}
		}
		if l >= k-1 { // fewer than k−1 edges cannot span k vertices
			if err := countLevel(t); err != nil {
				return nil, e.stats, err
			}
		}
	}
	t.remove()
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
	return out, e.stats, nil
}

// FSM mines frequent subgraphs (k−1 edges, ≤ k vertices, MNI support) with
// join + shuffle + aggregate phases per level, pruning infrequent patterns
// level-synchronously.
func FSM(g *graph.Graph, k int, support uint64, opt Options) ([]PatternCount, Stats, error) {
	if k < 3 || k > pattern.MaxK {
		return nil, Stats{}, fmt.Errorf("rstream: FSM size %d out of [3,%d]", k, pattern.MaxK)
	}
	if support == 0 {
		return nil, Stats{}, fmt.Errorf("rstream: FSM support must be positive")
	}
	e, err := newEngine(g, opt)
	if err != nil {
		return nil, Stats{}, err
	}
	defer e.close()
	freq, _ := mni.EdgePairs(g, support)
	t, err := e.initEdges(freq.Has)
	if err != nil {
		return nil, e.stats, err
	}
	emit := func(verts, tuple []uint32, cand uint32) bool {
		return freq.Has(cand) && len(verts)+countNew(verts, g.EdgeAt(cand)) <= k
	}
	var result []PatternCount
	for level := 2; level <= k-1; level++ {
		raw, err := e.join(t, emit)
		if err != nil {
			return nil, e.stats, err
		}
		t.remove()
		t, err = e.shuffle(raw, nil)
		if err != nil {
			return nil, e.stats, err
		}
		merged, err := e.aggregate(t, support)
		if err != nil {
			return nil, e.stats, err
		}
		if level < k-1 {
			// Reduce-side pruning: rewrite the table keeping frequent
			// patterns' tuples only.
			kept, err := e.filterTable(t, func(tuple []uint32) bool {
				p, _, err := tuplePattern(g, tuple)
				if err != nil {
					return false
				}
				p.SortByLabelDegree()
				agg, ok := merged[blisslike.Hash(p)]
				return ok && agg.Frequent()
			})
			if err != nil {
				return nil, e.stats, err
			}
			t.remove()
			t = kept
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
	t.remove()
	sortCounts(result)
	return result, e.stats, nil
}

// aggregate is the shuffle-to-quick-pattern phase: tuples become patterns
// hashed with the bliss-like labeler, MNI domains tracked per worker.
func (e *engine) aggregate(t *table, support uint64) (map[uint64]*mni.Agg, error) {
	maps := make([]map[uint64]*mni.Agg, e.threads)
	for i := range maps {
		maps[i] = map[uint64]*mni.Agg{}
	}
	err := e.scanAll(t, func(w int, tuple []uint32) error {
		p, verts, err := tuplePattern(e.g, tuple)
		if err != nil {
			return err
		}
		var perm [pattern.MaxK]uint8
		p.SortByLabelDegreeTracked(&perm)
		h := blisslike.Hash(p)
		agg, ok := maps[w][h]
		if !ok {
			agg = mni.NewAgg(p, e.g.N())
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

// filterTable rewrites t keeping tuples approved by keep.
func (e *engine) filterTable(t *table, keep func(tuple []uint32) bool) (*table, error) {
	e.seq++
	out := &table{arity: t.arity}
	names := make([]string, len(t.parts))
	counts := make([]int64, len(t.parts))
	errs := make([]error, len(t.parts))
	var wg sync.WaitGroup
	for p := range t.parts {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			name := e.newTableName("filt", p)
			f, err := os.Create(name)
			if err != nil {
				errs[p] = err
				return
			}
			bw := bufio.NewWriterSize(f, 1<<18)
			err = e.scanPart(t.parts[p], t.arity, func(tu []uint32) error {
				if !keep(tu) {
					return nil
				}
				counts[p]++
				e.addWritten(int64(4 * t.arity))
				return writeTuple(bw, tu)
			})
			if err != nil {
				errs[p] = err
				return
			}
			if err := bw.Flush(); err != nil {
				errs[p] = err
				return
			}
			if err := f.Close(); err != nil {
				errs[p] = err
				return
			}
			names[p] = name
		}(p)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	out.parts = names
	for _, c := range counts {
		out.count += c
	}
	return out, nil
}

// tuplePattern builds the labeled pattern of an edge tuple; verts[i] is the
// graph vertex at pattern index i.
func tuplePattern(g *graph.Graph, tuple []uint32) (*pattern.Pattern, []uint32, error) {
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
	edges := make([]pe, len(tuple))
	for i, eid := range tuple {
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
	for i := range tuple {
		p.SetEdge(edges[i].a, edges[i].b)
	}
	return p, verts, nil
}

func inducedPattern(g *graph.Graph, verts []uint32) (*pattern.Pattern, error) {
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

func countNew(verts []uint32, ed graph.Edge) int {
	n := 0
	i := sort.Search(len(verts), func(i int) bool { return verts[i] >= ed.U })
	if i >= len(verts) || verts[i] != ed.U {
		n++
	}
	i = sort.Search(len(verts), func(i int) bool { return verts[i] >= ed.V })
	if i >= len(verts) || verts[i] != ed.V {
		n++
	}
	return n
}

func sortCounts(out []PatternCount) {
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Pattern.Encode() < out[j].Pattern.Encode()
	})
}
