package graph

import (
	"fmt"
	"sort"
)

// This file implements cache-aware degree-ordered relabeling.
//
// Relabel permutes the vertex ids of a graph so that high-degree vertices get
// dense low ids. The mining hot paths benefit twice: the hub bitset rows
// (adjindex.go) cover a contiguous low-id prefix, and the position stamps
// and probes of clique exploration — whose addresses are vertex ids —
// concentrate on a small prefix of the stamp array, touching far fewer cache
// lines on the power-law graphs mining targets. Clique exploration grows each
// clique toward lower ids (Graph.Below), so in this order a vertex's forward
// list holds only its neighbours of higher degree: few even for a hub.
//
// The permutation is carried on the Graph (OrigID / NewID), so loaders can
// relabel transparently and translate user-facing vertex ids back at the API
// boundary.

// Relabeled reports whether the graph's vertex ids were permuted by Relabel.
func (g *Graph) Relabeled() bool { return g.origID != nil }

// OrigID translates internal vertex id v back to the id the graph was loaded
// with. The identity when the graph was never relabeled.
func (g *Graph) OrigID(v uint32) uint32 {
	if g.origID == nil {
		return v
	}
	return g.origID[v]
}

// NewID translates an original (load-time) vertex id to the internal
// degree-ordered id. The identity when the graph was never relabeled.
func (g *Graph) NewID(v uint32) uint32 {
	if g.newID == nil {
		return v
	}
	return g.newID[v]
}

// Relabel returns a graph isomorphic to g whose vertex ids are assigned in
// order of decreasing degree (ties broken by the original id, so the pass is
// deterministic): vertex 0 of the result is g's highest-degree vertex. The
// result carries the old↔new permutation (OrigID / NewID); g itself is not
// modified. Relabeling an already-relabeled graph returns it unchanged — the
// ids are already degree-ordered and the original-id contract must keep
// pointing at the load-time ids.
func Relabel(g *Graph) (*Graph, error) {
	if g.Relabeled() || g.n == 0 {
		return g, nil
	}
	order := make([]uint32, g.n) // order[new] = old
	for v := range order {
		order[v] = uint32(v)
	}
	sort.Slice(order, func(i, j int) bool {
		di, dj := g.Degree(order[i]), g.Degree(order[j])
		if di != dj {
			return di > dj
		}
		return order[i] < order[j]
	})
	newID := make([]uint32, g.n) // newID[old] = new
	for nv, ov := range order {
		newID[ov] = uint32(nv)
	}

	b := NewBuilder(g.n)
	if g.hub == nil {
		b.SetHubThreshold(-1)
	}
	for _, e := range g.edges {
		b.AddEdge(newID[e.U], newID[e.V])
	}
	for ov, l := range g.labels {
		b.labels[newID[ov]] = l
	}
	rg, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("graph: relabel: %w", err)
	}
	if rg.m != g.m {
		return nil, fmt.Errorf("graph: relabel changed edge count %d -> %d", g.m, rg.m)
	}
	rg.numLabels = g.numLabels
	rg.origID = order
	rg.newID = newID
	return rg, nil
}
