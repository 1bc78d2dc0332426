// Package explore implements Kaleido's embedding exploration engine (§3.1,
// §4): canonical-filtered vertex- and edge-induced expansion and
// intersection-based clique expansion over a CSE, parallel iteration over
// work-stealing chunks (§4.2), and automatic spilling of large levels to hybrid disk storage (§4.1).
package explore

import "kaleido/internal/graph"

// CanonicalVertex implements the incremental form of Definition 2: it
// reports whether appending candidate vertex cand to the canonical embedding
// emb keeps it canonical. The three properties of Definition 2:
//
//	(i)   cand must exceed the first vertex;
//	(ii)  cand must neighbor some embedding vertex (with a = the first such
//	      position);
//	(iii) every vertex after position a must be smaller than cand.
//
// Duplicate vertices are rejected. Assuming emb itself is canonical, the
// extension enumerates every connected induced subgraph exactly once.
//
// This is the O(k·log d̄) reference implementation, kept for external
// engines and as the oracle of the differential tests. The exploration hot
// path does not call it: the expansion loop uses the fused filter
// (vertexState.appendCanonical / edgeState.appendCanonical), which derives
// property (ii)'s attachment position from merge provenance — the lowest set
// bit of the candidate's adjacency mask — and checks (i)+(iii) with integer
// comparisons against precomputed suffix maxima (in vertex-induced mode once
// per run of leaves, see vertexState.updatePrefix).
func CanonicalVertex(g *graph.Graph, emb []uint32, cand uint32) bool {
	if cand <= emb[0] {
		return false
	}
	first := -1
	for i, v := range emb {
		if v == cand {
			return false
		}
		if first == -1 && g.HasEdge(v, cand) {
			first = i
			// Keep scanning: later positions must be checked for
			// duplicates and for property (iii).
			continue
		}
		if first >= 0 && v >= cand {
			return false
		}
	}
	return first >= 0
}

// CanonicalEdge is the edge-induced analogue of CanonicalVertex: embeddings
// are sequences of edge ids, adjacency is sharing an endpoint, and ordering
// is by edge id. emb holds the edge ids of the current embedding.
func CanonicalEdge(g *graph.Graph, emb []uint32, cand uint32) bool {
	if cand <= emb[0] {
		return false
	}
	ce := g.EdgeAt(cand)
	first := -1
	for i, eid := range emb {
		if eid == cand {
			return false
		}
		e := g.EdgeAt(eid)
		adjacent := e.U == ce.U || e.U == ce.V || e.V == ce.U || e.V == ce.V
		if first == -1 && adjacent {
			first = i
			continue
		}
		if first >= 0 && eid >= cand {
			return false
		}
	}
	return first >= 0
}

// mergeUnion writes the sorted union of sorted slices a and b into dst
// (which is reset) and returns it.
func mergeUnion(dst, a, b []uint32) []uint32 {
	need := len(a) + len(b)
	if cap(dst) < need {
		dst = make([]uint32, need)
	}
	dst = dst[:need]
	n, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		x, y := a[i], b[j]
		v := x
		if y < x {
			v = y
		}
		dst[n] = v
		n++
		if x <= y {
			i++
		}
		if y <= x {
			j++
		}
	}
	n += copy(dst[n:], a[i:])
	n += copy(dst[n:], b[j:])
	return dst[:n]
}

// gallopGE returns the smallest p in [i, len(s)] with s[p] >= v, for sorted
// s: an exponential probe from i followed by a binary search, O(log(p−i))
// instead of O(p−i) — the win when one merge input is much longer than the
// other.
func gallopGE(s []uint32, i int, v uint32) int {
	if i >= len(s) || s[i] >= v {
		return i
	}
	step := 1
	lo := i // s[lo] < v invariant
	for lo+step < len(s) && s[lo+step] < v {
		lo += step
		step <<= 1
	}
	hi := lo + step
	if hi > len(s) {
		hi = len(s)
	}
	lo++
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// gallopRatio: when the accumulated candidate list is at least this many
// times longer than the incoming neighbor list, mergeUnionProv switches from
// the element-wise merge to galloping + bulk copies.
const gallopRatio = 4

// mergeUnionProv writes the sorted union of candidate buffer a and sorted
// list b into dst, carrying provenance: candidates from a keep their
// adjacency mask, candidates in b get bBit — the bit of the embedding
// position whose list b is — ORed in (a tie is adjacent to both sides), and
// candidates only in b carry bBit alone. Every bit of a's masks lies below
// bBit by construction (a covers earlier embedding positions), so the lowest
// set bit of a result is still the earliest adjacent position. dst must not
// alias a.
//
// This is the hottest loop of exploration (≈half the expansion profile), so
// it writes into a pre-sized destination by index — no per-element capacity
// checks — and, because the candidate list grows with depth while each
// neighbor list stays at d̄, gallops over the long side in bulk memmoves once
// the ratio passes gallopRatio.
func mergeUnionProv(dst, a *candBuf, b []uint32, bBit uint32) {
	aids, aadj := a.ids, a.adj
	need := len(aids) + len(b)
	ids := dst.ids
	if cap(ids) < need {
		ids = make([]uint32, need)
	}
	ids = ids[:need]
	adj := dst.adj
	if cap(adj) < need {
		adj = make([]uint32, need)
	}
	adj = adj[:need]

	var n int
	if len(aids) >= gallopRatio*len(b) {
		n = mergeProvGallop(ids, adj, aids, aadj, b, bBit)
	} else {
		n = mergeProvLinear(ids, adj, aids, aadj, b, bBit)
	}
	dst.ids, dst.adj = ids[:n], adj[:n]
}

// mergeProvLinear is the element-wise merge for comparably sized inputs,
// written branch-lite (conditional selects plus unconditional index
// arithmetic) over pre-sized outputs.
func mergeProvLinear(ids, adj, aids, aadj, b []uint32, bBit uint32) int {
	n, i, j := 0, 0, 0
	for i < len(aids) && j < len(b) {
		x, y := aids[i], b[j]
		v, m := x, aadj[i]
		if y < x {
			v, m = y, 0
		}
		if x <= y {
			i++
		}
		if y <= x {
			m |= bBit
			j++
		}
		ids[n], adj[n] = v, m
		n++
	}
	c := copy(ids[n:], aids[i:])
	copy(adj[n:], aadj[i:])
	n += c
	c = copy(ids[n:], b[j:])
	for x := 0; x < c; x++ {
		adj[n+x] = bBit
	}
	return n + c
}

// mergeProvGallop merges a short b into a much longer a: for each b element
// it gallops to the insertion point and memmoves the intervening run of a —
// per-unit cost approaches copy bandwidth instead of compare-branch chains.
func mergeProvGallop(ids, adj, aids, aadj, b []uint32, bBit uint32) int {
	n, i := 0, 0
	for _, v := range b {
		p := gallopGE(aids, i, v)
		n += copy(ids[n:], aids[i:p])
		copy(adj[n-(p-i):], aadj[i:p])
		i = p
		m := bBit
		if i < len(aids) && aids[i] == v {
			m |= aadj[i]
			i++
		}
		ids[n], adj[n] = v, m
		n++
	}
	c := copy(ids[n:], aids[i:])
	copy(adj[n:], aadj[i:])
	return n + c
}

// insertSorted inserts v into sorted slice s if absent.
func insertSorted(s []uint32, v uint32) []uint32 {
	lo := 0
	hi := len(s)
	for lo < hi {
		mid := (lo + hi) / 2
		if s[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(s) && s[lo] == v {
		return s
	}
	s = append(s, 0)
	copy(s[lo+1:], s[lo:])
	s[lo] = v
	return s
}

// containsSorted reports whether sorted slice s contains v.
func containsSorted(s []uint32, v uint32) bool {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := (lo + hi) / 2
		if s[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(s) && s[lo] == v
}
