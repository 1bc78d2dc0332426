package main

import (
	"fmt"
	"sort"
)

// The oracles below work on the generated edge list alone, with their own
// adjacency structure, so that a job's counts are checked against something
// the program under test did not compute.

// adjacency is sorted neighbor lists.
type adjacency [][]uint32

func (el *edgeList) adjacency() adjacency {
	adj := make(adjacency, el.N)
	for _, e := range el.Edges {
		adj[e[0]] = append(adj[e[0]], e[1])
		adj[e[1]] = append(adj[e[1]], e[0])
	}
	for _, nb := range adj {
		sort.Slice(nb, func(i, j int) bool { return nb[i] < nb[j] })
	}
	return adj
}

func (a adjacency) hasEdge(u, v uint32) bool {
	nb := a[u]
	i := sort.Search(len(nb), func(i int) bool { return nb[i] >= v })
	return i < len(nb) && nb[i] == v
}

// above returns the neighbors of v with a larger id.
func (a adjacency) above(v uint32) []uint32 {
	nb := a[v]
	return nb[sort.Search(len(nb), func(i int) bool { return nb[i] > v }):]
}

// intersect appends the common elements of two sorted lists to dst.
func intersect(dst, x, y []uint32) []uint32 {
	for len(x) > 0 && len(y) > 0 {
		switch {
		case x[0] < y[0]:
			x = x[1:]
		case x[0] > y[0]:
			y = y[1:]
		default:
			dst = append(dst, x[0])
			x, y = x[1:], y[1:]
		}
	}
	return dst
}

// cliqueCounts counts triangles and 4-cliques by ordered intersection: each
// clique is found once, from its vertices in increasing id order.
func (a adjacency) cliqueCounts() (triangles, cliques4 uint64) {
	var common, inner []uint32
	for u := range a {
		up := a.above(uint32(u))
		for _, v := range up {
			common = intersect(common[:0], up, a.above(v))
			triangles += uint64(len(common))
			for _, w := range common {
				inner = intersect(inner[:0], common, a.above(w))
				cliques4 += uint64(len(inner))
			}
		}
	}
	return triangles, cliques4
}

// connected3 is the number of connected induced 3-vertex subgraphs: every
// pair of edges at a vertex spans one, and a triangle is spanned three times.
func (a adjacency) connected3(triangles uint64) uint64 {
	var wedges uint64
	for _, nb := range a {
		d := uint64(len(nb))
		wedges += d * (d - 1) / 2
	}
	return wedges - 2*triangles
}

// shape4 names a connected 4-vertex graph from its edge count and maximum
// degree, which tell the six of them apart.
func shape4(edges, maxDeg int) string {
	switch {
	case edges == 3 && maxDeg == 2:
		return "shape.path"
	case edges == 3 && maxDeg == 3:
		return "shape.star"
	case edges == 4 && maxDeg == 2:
		return "shape.cycle"
	case edges == 4 && maxDeg == 3:
		return "shape.tailed-triangle"
	case edges == 5:
		return "shape.diamond"
	case edges == 6:
		return "shape.clique"
	}
	return fmt.Sprintf("shape.unknown-%d-%d", edges, maxDeg)
}

// motif4 enumerates every connected induced 4-vertex subgraph once with the
// ESU algorithm (Wernicke 2006) and counts them by shape; "l4" is the total.
func (a adjacency) motif4() counts {
	out := counts{}
	var sub [4]uint32
	var extend func(n int, ext []uint32, root uint32)
	extend = func(n int, ext []uint32, root uint32) {
		if n == 4 {
			edges, maxDeg := 0, 0
			for i := 0; i < 4; i++ {
				deg := 0
				for j := 0; j < 4; j++ {
					if i != j && a.hasEdge(sub[i], sub[j]) {
						deg++
					}
				}
				edges += deg
				maxDeg = max(maxDeg, deg)
			}
			out[shape4(edges/2, maxDeg)]++
			out["l4"]++
			return
		}
		for len(ext) > 0 {
			w := ext[len(ext)-1]
			ext = ext[:len(ext)-1]
			// The extension set grows by w's exclusive neighborhood: above
			// the root, outside the subgraph and not adjacent to it.
			next := append([]uint32(nil), ext...)
		candidates:
			for _, u := range a[w] {
				if u <= root {
					continue
				}
				for _, s := range sub[:n] {
					if u == s || a.hasEdge(u, s) {
						continue candidates
					}
				}
				next = append(next, u)
			}
			sub[n] = w
			extend(n+1, next, root)
		}
	}
	for v := range a {
		sub[0] = uint32(v)
		extend(1, append([]uint32(nil), a.above(uint32(v))...), uint32(v))
	}
	return out
}

// diff reports the first difference between a job's counts and the wanted
// ones, or "" when every wanted name has the wanted value.
func (want counts) diff(got counts) string {
	for _, name := range sortedKeys(want) {
		if got[name] != want[name] {
			return fmt.Sprintf("%s = %d, want %d", name, got[name], want[name])
		}
	}
	return ""
}
