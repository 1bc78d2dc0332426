package graph

import (
	"fmt"
	"sort"
)

// Builder accumulates edges and labels and produces an immutable Graph.
// Duplicate edges and self loops are dropped; the edge direction does not
// matter. The zero value is not usable; call NewBuilder.
type Builder struct {
	n            int
	edges        []Edge
	labels       []Label
	hubThreshold int
}

// NewBuilder returns a builder for a graph with n vertices, all initially
// labeled 0.
func NewBuilder(n int) *Builder {
	return &Builder{n: n, labels: make([]Label, n)}
}

// SetHubThreshold configures the hub bitset index of the built graph: a
// vertex with degree ≥ t gets a packed adjacency-bitmap row, making HasEdge
// O(1) on it. t == 0 (the default) picks max(MinHubDegree, √2m)
// automatically; t < 0 disables the index.
func (b *Builder) SetHubThreshold(t int) { b.hubThreshold = t }

// AddEdge records the undirected edge {u, v}. Self loops are ignored.
func (b *Builder) AddEdge(u, v uint32) {
	if u == v {
		return
	}
	if u > v {
		u, v = v, u
	}
	b.edges = append(b.edges, Edge{u, v})
}

// SetLabel assigns a label to vertex v.
func (b *Builder) SetLabel(v uint32, l Label) { b.labels[v] = l }

// Build finalizes the graph: it sorts and deduplicates edges, assigns dense
// edge ids in (U, V) order, and materializes CSC adjacency and the
// below-neighbour counts behind Graph.Below and Graph.MaxBelow.
func (b *Builder) Build() (*Graph, error) {
	for _, e := range b.edges {
		if int(e.U) >= b.n || int(e.V) >= b.n {
			return nil, fmt.Errorf("graph: edge (%d,%d) out of range n=%d", e.U, e.V, b.n)
		}
	}
	sort.Slice(b.edges, func(i, j int) bool {
		if b.edges[i].U != b.edges[j].U {
			return b.edges[i].U < b.edges[j].U
		}
		return b.edges[i].V < b.edges[j].V
	})
	edges := b.edges[:0:0]
	for i, e := range b.edges {
		if i > 0 && e == b.edges[i-1] {
			continue
		}
		edges = append(edges, e)
	}
	m := len(edges)

	numLabels := 0
	for _, l := range b.labels {
		if int(l)+1 > numLabels {
			numLabels = int(l) + 1
		}
	}
	if numLabels == 0 {
		numLabels = 1
	}

	g := &Graph{
		n:         b.n,
		m:         m,
		spans:     make([]span, b.n),
		adj:       make([]uint32, 2*m),
		adjEdge:   make([]uint32, 2*m),
		edges:     edges,
		labels:    append([]Label(nil), b.labels...),
		numLabels: numLabels,
	}

	for _, e := range edges {
		g.spans[e.U].deg++
		g.spans[e.V].deg++
		g.spans[e.V].below++ // U < V
	}
	cursor := make([]uint64, b.n)
	off := uint64(0)
	for v := range g.spans {
		s := &g.spans[v]
		s.off, cursor[v] = off, off
		off += uint64(s.deg)
		g.maxBelow = max(g.maxBelow, int(s.below))
	}
	for id, e := range edges {
		g.adj[cursor[e.U]] = e.V
		g.adjEdge[cursor[e.U]] = uint32(id)
		cursor[e.U]++
		g.adj[cursor[e.V]] = e.U
		g.adjEdge[cursor[e.V]] = uint32(id)
		cursor[e.V]++
	}
	// Edges are inserted in (U,V)-sorted order, so each vertex's neighbor
	// list from the U side is sorted, but V-side arrivals interleave: sort
	// each list together with its edge ids.
	for v := 0; v < b.n; v++ {
		sort.Sort(&adjSorter{nb: g.Neighbors(uint32(v)), ie: g.IncidentEdges(uint32(v))})
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	switch {
	case b.hubThreshold < 0:
		// index disabled
	case b.hubThreshold == 0:
		g.hub = buildHubIndex(g, autoHubThreshold(m))
	default:
		g.hub = buildHubIndex(g, b.hubThreshold)
	}
	return g, nil
}

type adjSorter struct {
	nb []uint32
	ie []uint32
}

func (s *adjSorter) Len() int           { return len(s.nb) }
func (s *adjSorter) Less(i, j int) bool { return s.nb[i] < s.nb[j] }
func (s *adjSorter) Swap(i, j int) {
	s.nb[i], s.nb[j] = s.nb[j], s.nb[i]
	s.ie[i], s.ie[j] = s.ie[j], s.ie[i]
}

// FromEdges is a convenience constructor from an edge slice and label slice
// (labels may be nil for an unlabeled graph).
func FromEdges(n int, edges []Edge, labels []Label) (*Graph, error) {
	b := NewBuilder(n)
	for _, e := range edges {
		b.AddEdge(e.U, e.V)
	}
	if labels != nil {
		if len(labels) != n {
			return nil, fmt.Errorf("graph: %d labels for %d vertices", len(labels), n)
		}
		copy(b.labels, labels)
	}
	return b.Build()
}
