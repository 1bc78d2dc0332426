// Package pattern implements the compact pattern structure of §3.2 (Fig. 5):
// a vertex label array plus the upper triangle of the adjacency matrix stored
// as a bitmap. A pattern is the template of an embedding; Kaleido transforms
// each embedding directly into this structure during pattern aggregation.
//
// Patterns hold at most MaxK = 8 vertices — the paper's eigenvalue-based
// isomorphism check is valid only below 9 vertices (Corollary 1), and the
// full 8×8 adjacency bitmap fits exactly in one uint64.
package pattern

import (
	"fmt"
	"strings"

	"kaleido/internal/graph"
)

// MaxK is the maximum number of vertices in a pattern.
const MaxK = 8

// Pattern is a small labeled graph template. The adjacency matrix is stored
// as a full 8×8 bitmap (bit i*8+j set iff vertices i and j are adjacent);
// Deg caches each vertex's degree within the pattern, which Algorithm 1's
// sort and hash both use.
type Pattern struct {
	K      int
	Labels [MaxK]graph.Label
	Deg    [MaxK]uint8
	adj    uint64
}

// New returns an empty pattern with k isolated unlabeled vertices.
func New(k int) (*Pattern, error) {
	if k < 1 || k > MaxK {
		return nil, fmt.Errorf("pattern: k=%d out of range [1,%d]", k, MaxK)
	}
	return &Pattern{K: k}, nil
}

// Reset reinitializes p in place as an empty pattern with k isolated
// unlabeled vertices, letting hot aggregation loops reuse one Pattern value
// instead of allocating per embedding.
func (p *Pattern) Reset(k int) error {
	if k < 1 || k > MaxK {
		return fmt.Errorf("pattern: k=%d out of range [1,%d]", k, MaxK)
	}
	*p = Pattern{K: k}
	return nil
}

// FromEdgeEmbedding builds the pattern of an edge-induced embedding: verts
// lists the distinct vertices and edges lists index pairs into verts. Only
// the listed edges are present, even if the input graph has more edges among
// these vertices.
func FromEdgeEmbedding(g *graph.Graph, verts []uint32, edges [][2]int) (*Pattern, error) {
	p, err := New(len(verts))
	if err != nil {
		return nil, err
	}
	for i, v := range verts {
		p.Labels[i] = g.Label(v)
	}
	for _, e := range edges {
		if e[0] < 0 || e[0] >= p.K || e[1] < 0 || e[1] >= p.K || e[0] == e[1] {
			return nil, fmt.Errorf("pattern: bad edge indices %v for k=%d", e, p.K)
		}
		p.SetEdge(e[0], e[1])
	}
	return p, nil
}

// AddVertex appends an isolated vertex labelled l and returns its index.
func (p *Pattern) AddVertex(l graph.Label) (int, error) {
	if p.K >= MaxK {
		return 0, fmt.Errorf("pattern: k=%d out of range [1,%d]", p.K+1, MaxK)
	}
	p.Labels[p.K] = l
	p.K++
	return p.K - 1, nil
}

// SetEdge adds the undirected edge {i, j}.
func (p *Pattern) SetEdge(i, j int) {
	bit := uint64(1)<<(i*8+j) | uint64(1)<<(j*8+i)
	if p.adj&bit == bit {
		return
	}
	p.adj |= bit
	p.Deg[i]++
	p.Deg[j]++
}

// HasEdge reports whether vertices i and j are adjacent.
func (p *Pattern) HasEdge(i, j int) bool {
	return p.adj&(uint64(1)<<(i*8+j)) != 0
}

// Edges returns the number of edges in the pattern.
func (p *Pattern) Edges() int {
	total := 0
	for i := 0; i < p.K; i++ {
		total += int(p.Deg[i])
	}
	return total / 2
}

// SwapVertices exchanges vertices i and j, maintaining labels, degrees and
// the adjacency matrix consistently (paper Algorithm 1, Swap).
func (p *Pattern) SwapVertices(i, j int) {
	if i == j {
		return
	}
	p.Labels[i], p.Labels[j] = p.Labels[j], p.Labels[i]
	p.Deg[i], p.Deg[j] = p.Deg[j], p.Deg[i]
	// Swap rows i and j of the bitmap.
	ri := (p.adj >> (i * 8)) & 0xff
	rj := (p.adj >> (j * 8)) & 0xff
	p.adj &^= uint64(0xff)<<(i*8) | uint64(0xff)<<(j*8)
	p.adj |= ri<<(j*8) | rj<<(i*8)
	// Swap columns i and j: exchange bit i and bit j in every row.
	colMask := uint64(0x0101010101010101)
	ci := (p.adj >> i) & colMask
	cj := (p.adj >> j) & colMask
	p.adj &^= colMask<<i | colMask<<j
	p.adj |= ci<<j | cj<<i
}

// SortByLabelDegree orders vertices ascending by (label, degree) — the
// normalization step of Algorithm 1 (lines 29–33). After sorting, two
// isomorphic patterns have identical label and degree arrays.
func (p *Pattern) SortByLabelDegree() {
	// Selection sort via SwapVertices: K ≤ 8, so O(K²) swaps are cheap and
	// the adjacency matrix stays consistent at every step.
	for i := 0; i < p.K-1; i++ {
		min := i
		for j := i + 1; j < p.K; j++ {
			if p.Labels[j] < p.Labels[min] ||
				(p.Labels[j] == p.Labels[min] && p.Deg[j] < p.Deg[min]) {
				min = j
			}
		}
		if min != i {
			p.SwapVertices(i, min)
		}
	}
}

// SortByLabelDegreeTracked sorts like SortByLabelDegree and records the
// permutation: perm[i] = new position of the vertex originally at index i.
// Pattern aggregation uses it to map embedding vertices onto normalized
// pattern positions for MNI support domains (§5.1).
func (p *Pattern) SortByLabelDegreeTracked(perm *[MaxK]uint8) {
	var cur [MaxK]uint8 // cur[pos] = original index of the vertex now at pos
	for i := range cur {
		cur[i] = uint8(i)
	}
	for i := 0; i < p.K-1; i++ {
		min := i
		for j := i + 1; j < p.K; j++ {
			if p.Labels[j] < p.Labels[min] ||
				(p.Labels[j] == p.Labels[min] && p.Deg[j] < p.Deg[min]) {
				min = j
			}
		}
		if min != i {
			p.SwapVertices(i, min)
			cur[i], cur[min] = cur[min], cur[i]
		}
	}
	for pos := 0; pos < p.K; pos++ {
		perm[cur[pos]] = uint8(pos)
	}
}

// Permuted returns a copy of p with vertex i placed at position perm[i].
func (p *Pattern) Permuted(perm []int) *Pattern {
	q := &Pattern{K: p.K}
	for i := 0; i < p.K; i++ {
		q.Labels[perm[i]] = p.Labels[i]
	}
	for i := 0; i < p.K; i++ {
		for j := i + 1; j < p.K; j++ {
			if p.HasEdge(i, j) {
				q.SetEdge(perm[i], perm[j])
			}
		}
	}
	return q
}

// Clone returns a deep copy.
func (p *Pattern) Clone() *Pattern {
	q := *p
	return &q
}

// Equal reports structural equality (same vertex order).
func (p *Pattern) Equal(q *Pattern) bool {
	return p.K == q.K && p.adj == q.adj && p.Labels == q.Labels
}

// AdjBits exposes the raw adjacency bitmap for hashing and serialization.
func (p *Pattern) AdjBits() uint64 { return p.adj }

// Connected reports whether the pattern is a connected graph. Mining systems
// only enumerate connected subgraphs, so every pattern produced during
// aggregation must satisfy this.
func (p *Pattern) Connected() bool {
	if p.K == 0 {
		return false
	}
	var seen, frontier uint64 = 1, 1
	for frontier != 0 {
		next := uint64(0)
		for f := frontier; f != 0; f &= f - 1 {
			i := trailingZeros(f)
			next |= (p.adj >> (i * 8)) & 0xff
		}
		frontier = next &^ seen
		seen |= next
	}
	return seen == (uint64(1)<<p.K)-1
}

func trailingZeros(x uint64) int {
	n := 0
	for x&1 == 0 {
		x >>= 1
		n++
	}
	return n
}

// String renders the pattern as "labels / edge list" for diagnostics,
// e.g. "[1 1 2] {0-1 1-2}".
func (p *Pattern) String() string {
	var sb strings.Builder
	sb.WriteByte('[')
	for i := 0; i < p.K; i++ {
		if i > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "%d", p.Labels[i])
	}
	sb.WriteString("] {")
	first := true
	for i := 0; i < p.K; i++ {
		for j := i + 1; j < p.K; j++ {
			if p.HasEdge(i, j) {
				if !first {
					sb.WriteByte(' ')
				}
				fmt.Fprintf(&sb, "%d-%d", i, j)
				first = false
			}
		}
	}
	sb.WriteByte('}')
	return sb.String()
}

// MaxEncodeLen is the longest encoding, that of a pattern on MaxK vertices.
const MaxEncodeLen = 1 + 2*MaxK + 4

// Encode packs the pattern into a compact byte string usable as a map key:
// Fig. 5's layout — label list followed by the upper-triangle bitmap.
func (p *Pattern) Encode() string {
	return string(p.AppendEncode(make([]byte, 0, 1+2*p.K+4)))
}

// AppendEncode appends Encode's bytes to buf and returns the extended
// buffer; with a [MaxEncodeLen]byte array behind buf it does not allocate.
func (p *Pattern) AppendEncode(buf []byte) []byte {
	buf = append(buf, byte(p.K))
	for i := 0; i < p.K; i++ {
		buf = append(buf, byte(p.Labels[i]), byte(p.Labels[i]>>8))
	}
	// Upper triangle, row-major: k(k−1)/2 bits ≤ 28 for k ≤ 8.
	var bits uint32
	n := 0
	for i := 0; i < p.K; i++ {
		for j := i + 1; j < p.K; j++ {
			if p.HasEdge(i, j) {
				bits |= 1 << n
			}
			n++
		}
	}
	return append(buf, byte(bits), byte(bits>>8), byte(bits>>16), byte(bits>>24))
}

// Decode reverses Encode.
func Decode(s string) (*Pattern, error) {
	if len(s) < 1 {
		return nil, fmt.Errorf("pattern: empty encoding")
	}
	k := int(s[0])
	if k < 1 || k > MaxK {
		return nil, fmt.Errorf("pattern: encoded k=%d out of range", k)
	}
	if len(s) != 1+2*k+4 {
		return nil, fmt.Errorf("pattern: encoding length %d, want %d", len(s), 1+2*k+4)
	}
	p := &Pattern{K: k}
	for i := 0; i < k; i++ {
		p.Labels[i] = graph.Label(s[1+2*i]) | graph.Label(s[2+2*i])<<8
	}
	off := 1 + 2*k
	bits := uint32(s[off]) | uint32(s[off+1])<<8 | uint32(s[off+2])<<16 | uint32(s[off+3])<<24
	n := 0
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			if bits&(1<<n) != 0 {
				p.SetEdge(i, j)
			}
			n++
		}
	}
	return p, nil
}

// Bytes returns the serialized size of the Fig. 5 representation: a label
// array of k entries plus a bitmap of k(k−1)/2 bits.
func (p *Pattern) Bytes() int64 {
	return int64(2*p.K) + int64(p.K*(p.K-1)/2+7)/8
}
