package graph

import "math"

// This file implements the hybrid adjacency index: two complementary
// structures that remove the O(log d) binary search from adjacency tests.
//
//  1. Hub bitset rows — every vertex whose degree reaches the hub threshold
//     gets a packed N-bit row of the adjacency matrix. HasEdge involving a
//     hub becomes one bit test. Hubs are exactly where the binary search is
//     worst (log d is largest) and, on the power-law graphs graph mining
//     targets, where most adjacency probes land.
//  2. NeighborMarker — an epoch-stamped scratch array for batch membership
//     tests: mark a vertex set once (O(|set|)), then answer "is u in the
//     set" in O(1) per probe. The vertex-induced leaf stamps a prefix's
//     candidates once per run and probes every leaf's neighbours.
//
// Both are built once per graph (the bitsets in Builder.Build, markers on
// demand per worker) and never mutated afterwards, so they are safe for
// concurrent readers like the rest of the Graph.

// MinHubDegree is the smallest automatic hub threshold: vertices below this
// degree never get a bitset row, keeping the index negligible on small or
// uniform graphs.
const MinHubDegree = 64

// hubIndex holds packed adjacency-bitmap rows for high-degree vertices.
type hubIndex struct {
	threshold int     // degree at or above which a vertex is a hub
	words     int     // uint64 words per row = ceil(n/64)
	rowOf     []int32 // vertex id -> row index, -1 for non-hubs
	bits      []uint64
}

// autoHubThreshold picks the default threshold max(MinHubDegree, √2m): at
// most √2m vertices can have degree ≥ √2m, so the index holds O(√m) rows —
// n·√2m/8 bytes, a small constant factor of the CSC arrays on sparse graphs.
func autoHubThreshold(m int) int {
	t := int(math.Sqrt(float64(2 * m)))
	if t < MinHubDegree {
		t = MinHubDegree
	}
	return t
}

// buildHubIndex scans degrees and packs one bitmap row per hub vertex.
// threshold <= 0 disables the index (nil return). The total index size is
// capped at the size of the CSC adjacency array (8m bytes): if more vertices
// qualify than fit the cap, the threshold is raised so only the highest-
// degree vertices get rows — those are where the bitmaps pay off most, and
// the cap keeps the index a bounded fraction of the graph's footprint even
// on huge power-law graphs.
func buildHubIndex(g *Graph, threshold int) *hubIndex {
	if threshold <= 0 || g.n == 0 {
		return nil
	}
	rowBytes := ((g.n + 63) / 64) * 8
	maxRows := 8 * g.m / rowBytes
	countAt := func(t int) int {
		c := 0
		for v := 0; v < g.n; v++ {
			if g.Degree(uint32(v)) >= t {
				c++
			}
		}
		return c
	}
	hubs := countAt(threshold)
	for hubs > maxRows {
		// Doubling the threshold at least halves Σdeg of qualifying
		// vertices, so this terminates quickly.
		threshold *= 2
		hubs = countAt(threshold)
	}
	if hubs == 0 {
		return nil
	}
	h := &hubIndex{
		threshold: threshold,
		words:     (g.n + 63) / 64,
		rowOf:     make([]int32, g.n),
	}
	h.bits = make([]uint64, hubs*h.words)
	row := int32(0)
	for v := 0; v < g.n; v++ {
		if g.Degree(uint32(v)) < threshold {
			h.rowOf[v] = -1
			continue
		}
		h.rowOf[v] = row
		bits := h.bits[int(row)*h.words : (int(row)+1)*h.words]
		for _, u := range g.Neighbors(uint32(v)) {
			bits[u>>6] |= 1 << (u & 63)
		}
		row++
	}
	return h
}

// test reports bit u of row r.
func (h *hubIndex) test(r int32, u uint32) bool {
	return h.bits[int(r)*h.words+int(u>>6)]&(1<<(u&63)) != 0
}

// bytes is the resident footprint of the index.
func (h *hubIndex) bytes() int64 {
	if h == nil {
		return 0
	}
	return int64(len(h.rowOf))*4 + int64(len(h.bits))*8
}

// HubThreshold returns the degree threshold of the hub bitset index, or 0 if
// the graph has no index (disabled, or no vertex qualified).
func (g *Graph) HubThreshold() int {
	if g.hub == nil {
		return 0
	}
	return g.hub.threshold
}

// IsHub reports whether v has a bitmap row in the hybrid adjacency index.
func (g *Graph) IsHub(v uint32) bool {
	return g.hub != nil && g.hub.rowOf[v] >= 0
}

// NeighborMarker is a reusable, epoch-stamped scratch for batch membership
// tests against a set of vertices. A batch starts with Begin, adds vertices
// with Mark, and then answers Marked probes in O(1). Begin is O(1): stale
// stamps from earlier batches are invalidated by bumping the epoch, not by
// clearing.
//
// A marker belongs to one goroutine; concurrent workers each create their
// own (the scratch is O(N) ints, shared-nothing by design).
type NeighborMarker struct {
	epoch uint32
	stamp []uint32 // stamp[v] == epoch ⇔ v marked in the current batch
}

// NewNeighborMarker returns a marker for batch membership tests on g. The
// marker starts with an empty batch (epoch 1, all stamps 0 — nothing reads
// as marked before the first Begin).
func (g *Graph) NewNeighborMarker() *NeighborMarker {
	return &NeighborMarker{
		epoch: 1,
		stamp: make([]uint32, g.n),
	}
}

// Begin starts a new empty batch, invalidating all marks in O(1).
func (m *NeighborMarker) Begin() {
	m.epoch++
	if m.epoch == 0 { // wrapped: stale stamps could collide, hard-clear once
		clear(m.stamp)
		m.epoch = 1
	}
}

// Mark adds a single vertex to the batch.
func (m *NeighborMarker) Mark(v uint32) { m.stamp[v] = m.epoch }

// Unmark removes a single vertex from the batch — an undo of its Mark that
// keeps the rest of the batch. (No epoch is 0, so a 0 stamp never reads as
// marked.)
func (m *NeighborMarker) Unmark(v uint32) { m.stamp[v] = 0 }

// Marked reports whether v is in the current batch.
func (m *NeighborMarker) Marked(v uint32) bool { return m.stamp[v] == m.epoch }
