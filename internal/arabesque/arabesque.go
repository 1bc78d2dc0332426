// Package arabesque re-implements the algorithmic core of Arabesque
// (Teixeira et al., SOSP 2015) — the distributed "think like an embedding"
// baseline of the paper's §6.2 — as a single-machine engine:
//
//   - intermediate embeddings are stored in an ODAG (overapproximating
//     directed acyclic graph): one vertex domain per embedding position plus
//     links between consecutive positions;
//   - enumerating the ODAG yields candidate tuples that require an extra
//     full canonicality re-check per tuple (the overhead §1.2 and §6.2
//     measure at ~5% of Arabesque run time);
//   - candidate sets are recomputed from scratch for every embedding (no
//     CSE-style incremental candidate maintenance);
//   - pattern aggregation uses the bliss-like search-tree canonical labeler.
//
// The Giraph/Hadoop substrate of the original is intentionally not
// reproduced; measured gaps versus Kaleido therefore reflect algorithmic
// differences only.
package arabesque

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"kaleido/internal/explore"
	"kaleido/internal/graph"
	"kaleido/internal/memtrack"
)

// Mode mirrors explore.Mode for the baseline engine.
type Mode int

const (
	// VertexInduced embeddings are vertex tuples.
	VertexInduced Mode = iota
	// EdgeInduced embeddings are edge-id tuples.
	EdgeInduced
)

// ODAG stores the embeddings of one exploration level compactly: domains[i]
// is the sorted set of unit ids appearing at position i, links[i] maps a
// unit at position i to the sorted units that follow it at position i+1 in
// at least one embedding. Enumeration overapproximates — every stored
// embedding is a path, but not every path is an embedding — so a
// canonicality re-check filters spurious tuples.
type ODAG struct {
	K       int
	domains [][]uint32
	links   []map[uint32][]uint32
}

// NewODAG returns an empty ODAG for k-unit embeddings.
func NewODAG(k int) *ODAG {
	o := &ODAG{K: k, domains: make([][]uint32, k), links: make([]map[uint32][]uint32, k-1)}
	for i := range o.links {
		o.links[i] = map[uint32][]uint32{}
	}
	return o
}

// Add records one embedding tuple.
func (o *ODAG) Add(emb []uint32) {
	for i, u := range emb {
		o.domains[i] = insertSorted(o.domains[i], u)
		if i+1 < len(emb) {
			o.links[i][u] = insertSorted(o.links[i][u], emb[i+1])
		}
	}
}

// Merge folds another ODAG (from a peer worker) into o.
func (o *ODAG) Merge(b *ODAG) {
	for i := range b.domains {
		for _, u := range b.domains[i] {
			o.domains[i] = insertSorted(o.domains[i], u)
		}
	}
	for i := range b.links {
		for u, next := range b.links[i] {
			for _, v := range next {
				o.links[i][u] = insertSorted(o.links[i][u], v)
			}
		}
	}
}

// Bytes reports the resident footprint (the paper's Fig. 10 memory metric).
func (o *ODAG) Bytes() int64 {
	var b int64
	for _, d := range o.domains {
		b += int64(len(d)) * 4
	}
	for _, l := range o.links {
		for _, next := range l {
			b += 8 + int64(len(next))*4
		}
	}
	return b
}

func canonicalFn(mode Mode) func(*graph.Graph, []uint32, uint32) bool {
	if mode == EdgeInduced {
		return explore.CanonicalEdge
	}
	return explore.CanonicalVertex
}

// Engine drives level-by-level exploration over ODAGs.
//
// Because the ODAG overapproximates (paths may cross between stored
// embeddings), enumeration re-applies the canonical check and every level's
// EmbeddingFilter at each position — exactly the per-superstep recomputation
// of Arabesque. Filters must therefore be prefix-safe: if they accept an
// extension they must accept it under any canonical prefix of the same
// embedding (the clique and FSM filters of §5.1 are). Aggregation-driven
// pruning (Rebuild) additionally installs a whole-tuple predicate that is
// re-applied on every later enumeration.
type Engine struct {
	g         *graph.Graph
	mode      Mode
	threads   int
	tracker   *memtrack.Tracker
	odag      *ODAG
	ledger    int64
	filters   []Filter // filters[i] vetted extensions to position i+1
	tupleKeep func(worker int, emb []uint32) bool
}

// Filter vets a candidate extension, mirroring Kaleido's EmbeddingFilter.
type Filter func(emb []uint32, cand uint32) bool

// NewEngine creates an Arabesque-like engine.
func NewEngine(g *graph.Graph, mode Mode, threads int, tracker *memtrack.Tracker) (*Engine, error) {
	if g == nil {
		return nil, fmt.Errorf("arabesque: nil graph")
	}
	if threads <= 0 {
		threads = 1
	}
	return &Engine{g: g, mode: mode, threads: threads, tracker: tracker}, nil
}

// Init builds the level-1 ODAG from all units (vertices or edges).
func (e *Engine) Init(filter func(unit uint32) bool) error {
	if e.odag != nil {
		return fmt.Errorf("arabesque: already initialized")
	}
	n := e.g.N()
	if e.mode == EdgeInduced {
		n = e.g.M()
	}
	o := NewODAG(1)
	for u := uint32(0); u < uint32(n); u++ {
		if filter == nil || filter(u) {
			o.domains[0] = append(o.domains[0], u)
		}
	}
	e.setODAG(o)
	return nil
}

func (e *Engine) setODAG(o *ODAG) {
	if e.tracker != nil {
		e.tracker.Free(e.ledger)
		e.ledger = o.Bytes()
		e.tracker.Alloc(e.ledger)
	}
	e.odag = o
}

// Depth returns the current embedding size.
func (e *Engine) Depth() int { return e.odag.K }

// Bytes reports the current ODAG footprint.
func (e *Engine) Bytes() int64 { return e.odag.Bytes() }

// Expand derives the next level: every embedding is enumerated (with the
// canonicality re-check), its candidate set recomputed from scratch, and
// surviving extensions inserted into per-worker ODAGs that are merged — the
// TLE superstep of Arabesque.
func (e *Engine) Expand(filter Filter) error {
	k := e.odag.K
	outs := make([]*ODAG, e.threads)
	for i := range outs {
		outs[i] = NewODAG(k + 1)
	}
	canonical := canonicalFn(e.mode)
	tuples := make([][]uint32, e.threads)
	err := e.enumerate(func(w int, emb []uint32) error {
		if tuples[w] == nil {
			tuples[w] = make([]uint32, k+1)
		}
		tuple := tuples[w]
		copy(tuple, emb)
		for _, cand := range e.candidates(emb) {
			if !canonical(e.g, emb, cand) {
				continue
			}
			if filter != nil && !filter(emb, cand) {
				continue
			}
			tuple[k] = cand
			outs[w].Add(tuple)
		}
		return nil
	})
	if err != nil {
		return err
	}
	merged := outs[0]
	for _, o := range outs[1:] {
		merged.Merge(o)
	}
	e.setODAG(merged)
	e.filters = append(e.filters, filter)
	e.tupleKeep = nil // a fresh level is fully filter-characterized
	return nil
}

// enumerate walks every ODAG path, re-applying the canonical check, the
// per-level filters, and the tuple keep predicate, and calls visit for each
// genuine embedding. Work is partitioned by first unit across workers.
func (e *Engine) enumerate(visit func(worker int, emb []uint32) error) error {
	o := e.odag
	if len(o.domains[0]) == 0 {
		return nil
	}
	canonical := canonicalFn(e.mode)
	var next atomic.Int64
	firsts := o.domains[0]
	errs := make([]error, e.threads)
	var wg sync.WaitGroup
	for w := 0; w < e.threads; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tuple := make([]uint32, o.K)
			var rec func(pos int) error
			rec = func(pos int) error {
				if pos == o.K {
					if e.tupleKeep != nil && !e.tupleKeep(w, tuple) {
						return nil
					}
					return visit(w, tuple)
				}
				f := e.filters[pos-1]
				for _, u := range o.links[pos-1][tuple[pos-1]] {
					// Re-check canonicality and the level filter: the
					// ODAG path may cross between stored embeddings.
					if !canonical(e.g, tuple[:pos], u) {
						continue
					}
					if f != nil && !f(tuple[:pos], u) {
						continue
					}
					tuple[pos] = u
					if err := rec(pos + 1); err != nil {
						return err
					}
				}
				return nil
			}
			for {
				i := int(next.Add(1)) - 1
				if i >= len(firsts) {
					return
				}
				tuple[0] = firsts[i]
				if err := rec(1); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// ForEach enumerates the current level's embeddings in parallel.
func (e *Engine) ForEach(visit func(worker int, emb []uint32) error) error {
	return e.enumerate(visit)
}

// Count returns the number of embeddings at the current level (via a full
// enumeration — the ODAG does not store the count).
func (e *Engine) Count() (uint64, error) {
	counts := make([]uint64, e.threads)
	err := e.ForEach(func(w int, _ []uint32) error {
		counts[w]++
		return nil
	})
	var total uint64
	for _, c := range counts {
		total += c
	}
	return total, err
}

// Rebuild replaces the current ODAG with one holding only embeddings
// approved by keep — Arabesque's aggregation-driven pruning for FSM. The
// predicate is retained and re-applied on later enumerations because ODAG
// path crossings could otherwise resurrect pruned embeddings.
func (e *Engine) Rebuild(keep func(worker int, emb []uint32) bool) error {
	outs := make([]*ODAG, e.threads)
	for i := range outs {
		outs[i] = NewODAG(e.odag.K)
	}
	err := e.ForEach(func(w int, emb []uint32) error {
		if keep(w, emb) {
			outs[w].Add(emb)
		}
		return nil
	})
	if err != nil {
		return err
	}
	merged := outs[0]
	for _, o := range outs[1:] {
		merged.Merge(o)
	}
	e.setODAG(merged)
	e.tupleKeep = keep
	return nil
}

// candidates recomputes the embedding's candidate set from scratch — the
// non-incremental path Arabesque takes (contrast Kaleido's Fig. 8 incremental
// candidate sets, reused across a CSE run).
func (e *Engine) candidates(emb []uint32) []uint32 {
	var out []uint32
	if e.mode == VertexInduced {
		for _, v := range emb {
			for _, u := range e.g.Neighbors(v) {
				out = insertSorted(out, u)
			}
		}
		return out
	}
	seen := make([]uint32, 0, 2*len(emb))
	for _, eid := range emb {
		ed := e.g.EdgeAt(eid)
		for _, v := range []uint32{ed.U, ed.V} {
			if containsSorted(seen, v) {
				continue
			}
			seen = insertSorted(seen, v)
			for _, f := range e.g.IncidentEdges(v) {
				out = insertSorted(out, f)
			}
		}
	}
	return out
}

// Vertices returns the sorted distinct vertices of an edge-induced tuple.
func Vertices(g *graph.Graph, emb []uint32, buf []uint32) []uint32 {
	buf = buf[:0]
	for _, eid := range emb {
		ed := g.EdgeAt(eid)
		buf = insertSorted(buf, ed.U)
		buf = insertSorted(buf, ed.V)
	}
	return buf
}

func insertSorted(s []uint32, v uint32) []uint32 {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= v })
	if i < len(s) && s[i] == v {
		return s
	}
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

func containsSorted(s []uint32, v uint32) bool {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= v })
	return i < len(s) && s[i] == v
}
