// Package graph provides the labeled undirected graph substrate used by the
// Kaleido mining engine. The structure is stored in compressed sparse column
// (CSC) form — equivalent to the sparse adjacency matrix of the graph — as
// described in §3.1.1 of the Kaleido paper.
//
// Vertices are dense uint32 ids in [0, N). Every edge {u, v} also carries a
// dense edge id in [0, M), which edge-induced mining (FSM) uses as its
// exploration unit. Neighbor lists and incident-edge lists are sorted, which
// the candidate merges and the canonical filter rely on.
//
// On top of the CSC arrays sits a hybrid adjacency index (adjindex.go) that
// makes membership tests O(1) where the binary search is worst: vertices
// whose degree reaches a configurable hub threshold (Builder.SetHubThreshold,
// default √2m) carry packed bitset rows consulted by HasEdge, and
// NeighborMarker provides epoch-stamped scratch for batch membership tests
// against a marked vertex set (the common neighbours of clique exploration).
package graph

import (
	"fmt"
	"sort"
)

// Label is a vertex (or edge) label. The paper's datasets have at most 37
// distinct labels; uint16 leaves ample headroom.
type Label = uint16

// Edge is one undirected edge with U < V.
type Edge struct {
	U, V uint32
}

// Graph is an immutable labeled undirected graph in CSC form.
type Graph struct {
	n int // number of vertices
	m int // number of undirected edges

	// CSC adjacency: neighbors of v are adj[offsets[v]:offsets[v+1]], sorted.
	offsets []uint64
	adj     []uint32
	// adjEdge[i] is the edge id of the edge (v, adj[i]).
	adjEdge []uint32

	// Edge list indexed by edge id; always U < V, sorted by (U, V).
	edges []Edge

	labels    []Label
	numLabels int

	// hub is the bitset half of the hybrid adjacency index (adjindex.go);
	// nil when disabled or when no vertex reaches the threshold.
	hub *hubIndex

	// Degree-ordered relabeling permutation (relabel.go): origID[new] is the
	// load-time id of internal vertex new, newID[old] the inverse. Both nil
	// when the graph was never relabeled.
	origID []uint32
	newID  []uint32
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// M returns the number of undirected edges.
func (g *Graph) M() int { return g.m }

// NumLabels returns the number of distinct vertex labels.
func (g *Graph) NumLabels() int { return g.numLabels }

// Label returns the label of vertex v.
func (g *Graph) Label(v uint32) Label { return g.labels[v] }

// Labels returns the full label array. Callers must not mutate it.
func (g *Graph) Labels() []Label { return g.labels }

// Degree returns the degree of vertex v.
func (g *Graph) Degree(v uint32) int {
	return int(g.offsets[v+1] - g.offsets[v])
}

// AvgDegree returns the average vertex degree 2M/N.
func (g *Graph) AvgDegree() float64 {
	if g.n == 0 {
		return 0
	}
	return 2 * float64(g.m) / float64(g.n)
}

// Neighbors returns the sorted neighbor list of v. Callers must not mutate it.
func (g *Graph) Neighbors(v uint32) []uint32 {
	return g.adj[g.offsets[v]:g.offsets[v+1]]
}

// IncidentEdges returns the edge ids incident to v, ordered by neighbor id.
// Callers must not mutate the returned slice.
func (g *Graph) IncidentEdges(v uint32) []uint32 {
	return g.adjEdge[g.offsets[v]:g.offsets[v+1]]
}

// EdgeAt returns the endpoints of edge id e (U < V).
func (g *Graph) EdgeAt(e uint32) Edge { return g.edges[e] }

// Edges returns the edge list indexed by edge id. Callers must not mutate it.
func (g *Graph) Edges() []Edge { return g.edges }

// HasEdge reports whether {u, v} is an edge: O(1) via the hub bitset row
// when either endpoint is a hub, binary search on the shorter adjacency list
// otherwise (both lists then being below the hub threshold).
func (g *Graph) HasEdge(u, v uint32) bool {
	if u == v {
		return false
	}
	if h := g.hub; h != nil {
		if r := h.rowOf[u]; r >= 0 {
			return h.test(r, v)
		}
		if r := h.rowOf[v]; r >= 0 {
			return h.test(r, u)
		}
	}
	if g.Degree(u) > g.Degree(v) {
		u, v = v, u
	}
	nb := g.Neighbors(u)
	i := sort.Search(len(nb), func(i int) bool { return nb[i] >= v })
	return i < len(nb) && nb[i] == v
}

// EdgeID returns the edge id of {u, v} and whether the edge exists.
func (g *Graph) EdgeID(u, v uint32) (uint32, bool) {
	if u == v {
		return 0, false
	}
	nb := g.Neighbors(u)
	i := sort.Search(len(nb), func(i int) bool { return nb[i] >= v })
	if i < len(nb) && nb[i] == v {
		return g.IncidentEdges(u)[i], true
	}
	return 0, false
}

// Bytes returns the in-memory footprint of the graph structure, used by the
// memory-consumption experiments (§6).
func (g *Graph) Bytes() int64 {
	return int64(len(g.offsets))*8 +
		int64(len(g.adj))*4 +
		int64(len(g.adjEdge))*4 +
		int64(len(g.edges))*8 +
		int64(len(g.labels))*2 +
		int64(len(g.origID))*4 +
		int64(len(g.newID))*4 +
		g.hub.bytes()
}

// Validate checks internal invariants; it is used by tests and by loaders of
// untrusted binary files.
func (g *Graph) Validate() error {
	if len(g.offsets) != g.n+1 {
		return fmt.Errorf("graph: offsets length %d, want %d", len(g.offsets), g.n+1)
	}
	if len(g.adj) != 2*g.m || len(g.adjEdge) != 2*g.m {
		return fmt.Errorf("graph: adjacency length %d/%d, want %d", len(g.adj), len(g.adjEdge), 2*g.m)
	}
	if len(g.labels) != g.n {
		return fmt.Errorf("graph: labels length %d, want %d", len(g.labels), g.n)
	}
	if g.offsets[0] != 0 || g.offsets[g.n] != uint64(2*g.m) {
		return fmt.Errorf("graph: offset bounds [%d, %d], want [0, %d]", g.offsets[0], g.offsets[g.n], 2*g.m)
	}
	for v := 0; v < g.n; v++ {
		if g.offsets[v] > g.offsets[v+1] {
			return fmt.Errorf("graph: offsets not monotone at vertex %d", v)
		}
		nb := g.Neighbors(uint32(v))
		ie := g.IncidentEdges(uint32(v))
		for i, u := range nb {
			if i > 0 && nb[i-1] >= u {
				return fmt.Errorf("graph: neighbors of %d not strictly sorted", v)
			}
			if u == uint32(v) {
				return fmt.Errorf("graph: self loop at %d", v)
			}
			if int(u) >= g.n {
				return fmt.Errorf("graph: neighbor %d of %d out of range", u, v)
			}
			e := g.edges[ie[i]]
			lo, hi := uint32(v), u
			if lo > hi {
				lo, hi = hi, lo
			}
			if e.U != lo || e.V != hi {
				return fmt.Errorf("graph: edge id %d of (%d,%d) maps to (%d,%d)", ie[i], v, u, e.U, e.V)
			}
		}
	}
	for v := range g.labels {
		if int(g.labels[v]) >= g.numLabels {
			return fmt.Errorf("graph: label %d of vertex %d out of range %d", g.labels[v], v, g.numLabels)
		}
	}
	return nil
}
