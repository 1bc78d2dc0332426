package pattern

import (
	"math/rand"
	"testing"

	"kaleido/internal/graph"
)

func triangle(t *testing.T) *Pattern {
	t.Helper()
	p, err := New(3)
	if err != nil {
		t.Fatal(err)
	}
	p.SetEdge(0, 1)
	p.SetEdge(1, 2)
	p.SetEdge(0, 2)
	return p
}

func TestNewBounds(t *testing.T) {
	for _, k := range []int{0, -1, 9, 100} {
		if _, err := New(k); err == nil {
			t.Errorf("New(%d) accepted", k)
		}
	}
	for k := 1; k <= MaxK; k++ {
		if _, err := New(k); err != nil {
			t.Errorf("New(%d): %v", k, err)
		}
	}
}

// TestAddVertex grows a pattern one labelled vertex at a time: the result
// equals the pattern New builds at the final size, and a ninth vertex is
// refused.
func TestAddVertex(t *testing.T) {
	p, _ := New(1)
	p.Labels[0] = 3
	for k := 1; k < MaxK; k++ {
		i, err := p.AddVertex(graph.Label(k))
		if err != nil || i != k || p.K != k+1 {
			t.Fatalf("AddVertex #%d = %d, %v; K = %d", k, i, err, p.K)
		}
		p.SetEdge(i-1, i)
	}
	want, _ := New(MaxK)
	want.Labels = [MaxK]graph.Label{3, 1, 2, 3, 4, 5, 6, 7}
	for i := 1; i < MaxK; i++ {
		want.SetEdge(i-1, i)
	}
	if !p.Equal(want) || p.Deg != want.Deg {
		t.Fatalf("grown %v, want %v", p, want)
	}
	if _, err := p.AddVertex(0); err == nil || p.K != MaxK {
		t.Fatalf("vertex %d accepted (K = %d)", MaxK+1, p.K)
	}
}

func TestSetEdgeIdempotent(t *testing.T) {
	p, _ := New(3)
	p.SetEdge(0, 1)
	p.SetEdge(1, 0)
	p.SetEdge(0, 1)
	if p.Edges() != 1 {
		t.Fatalf("Edges = %d, want 1", p.Edges())
	}
	if p.Deg[0] != 1 || p.Deg[1] != 1 || p.Deg[2] != 0 {
		t.Fatalf("degrees = %v", p.Deg[:3])
	}
}

func TestTriangleBasics(t *testing.T) {
	p := triangle(t)
	if p.Edges() != 3 {
		t.Fatalf("Edges = %d, want 3", p.Edges())
	}
	for i := 0; i < 3; i++ {
		if p.Deg[i] != 2 {
			t.Fatalf("Deg[%d] = %d, want 2", i, p.Deg[i])
		}
	}
	if !p.Connected() {
		t.Fatal("triangle reported disconnected")
	}
}

func TestConnected(t *testing.T) {
	p, _ := New(4)
	p.SetEdge(0, 1)
	p.SetEdge(2, 3)
	if p.Connected() {
		t.Fatal("two disjoint edges reported connected")
	}
	p.SetEdge(1, 2)
	if !p.Connected() {
		t.Fatal("path reported disconnected")
	}
	single, _ := New(1)
	if !single.Connected() {
		t.Fatal("single vertex reported disconnected")
	}
}

func TestSwapVerticesConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		k := 2 + rng.Intn(MaxK-1)
		p, _ := New(k)
		for i := 0; i < k; i++ {
			p.Labels[i] = graph.Label(rng.Intn(4))
			for j := i + 1; j < k; j++ {
				if rng.Intn(2) == 0 {
					p.SetEdge(i, j)
				}
			}
		}
		q := p.Clone()
		i, j := rng.Intn(k), rng.Intn(k)
		q.SwapVertices(i, j)
		// Swapping twice restores the original.
		r := q.Clone()
		r.SwapVertices(i, j)
		if !r.Equal(p) {
			t.Fatalf("trial %d: double swap not identity:\n p=%v\n r=%v", trial, p, r)
		}
		// Swap must preserve edge count and relocate degrees.
		if q.Edges() != p.Edges() {
			t.Fatalf("trial %d: swap changed edge count", trial)
		}
		if q.Deg[i] != p.Deg[j] || q.Deg[j] != p.Deg[i] {
			t.Fatalf("trial %d: degrees not swapped", trial)
		}
		// Adjacency semantics: q.HasEdge(a',b') where a'/b' are mapped.
		mapv := func(v int) int {
			switch v {
			case i:
				return j
			case j:
				return i
			}
			return v
		}
		for a := 0; a < k; a++ {
			for b := 0; b < k; b++ {
				if p.HasEdge(a, b) != q.HasEdge(mapv(a), mapv(b)) {
					t.Fatalf("trial %d: edge (%d,%d) inconsistent after swap(%d,%d)", trial, a, b, i, j)
				}
			}
		}
	}
}

func TestSortByLabelDegree(t *testing.T) {
	p, _ := New(4)
	p.Labels = [MaxK]graph.Label{3, 1, 2, 1}
	p.SetEdge(0, 1)
	p.SetEdge(0, 3)
	p.SetEdge(3, 2)
	edgesBefore := p.Edges()
	p.SortByLabelDegree()
	if p.Edges() != edgesBefore {
		t.Fatal("sort changed edge count")
	}
	for i := 1; i < p.K; i++ {
		if p.Labels[i] < p.Labels[i-1] {
			t.Fatalf("labels not sorted: %v", p.Labels[:p.K])
		}
		if p.Labels[i] == p.Labels[i-1] && p.Deg[i] < p.Deg[i-1] {
			t.Fatalf("degrees not sorted within label: %v / %v", p.Labels[:p.K], p.Deg[:p.K])
		}
	}
}

func TestPermutedPreservesStructure(t *testing.T) {
	p := triangle(t)
	p.Labels = [MaxK]graph.Label{7, 8, 9}
	q := p.Permuted([]int{2, 0, 1})
	if q.Edges() != 3 || q.Labels[2] != 7 || q.Labels[0] != 8 || q.Labels[1] != 9 {
		t.Fatalf("permuted = %v", q)
	}
}

func TestFromEdgeEmbedding(t *testing.T) {
	b := graph.NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(0, 2)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	// An edge-induced 2-edge embedding on a triangle keeps only its edges.
	p, err := FromEdgeEmbedding(g, []uint32{0, 1, 2}, [][2]int{{0, 1}, {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if p.Edges() != 2 || p.HasEdge(0, 2) {
		t.Fatalf("edge-induced pattern has induced edge: %v", p)
	}
	if _, err := FromEdgeEmbedding(g, []uint32{0, 1}, [][2]int{{0, 5}}); err == nil {
		t.Fatal("bad edge index accepted")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 300; trial++ {
		k := 1 + rng.Intn(MaxK)
		p, _ := New(k)
		for i := 0; i < k; i++ {
			p.Labels[i] = graph.Label(rng.Intn(300))
			for j := i + 1; j < k; j++ {
				if rng.Intn(2) == 0 {
					p.SetEdge(i, j)
				}
			}
		}
		got, err := Decode(p.Encode())
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !got.Equal(p) {
			t.Fatalf("trial %d: round trip changed pattern\n p=%v\n got=%v", trial, p, got)
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	for _, s := range []string{"", "\x00", "\x09", "\x03abc"} {
		if _, err := Decode(s); err == nil {
			t.Errorf("Decode(%q) succeeded", s)
		}
	}
}

func TestString(t *testing.T) {
	p := triangle(t)
	if got := p.String(); got != "[0 0 0] {0-1 0-2 1-2}" {
		t.Fatalf("String = %q", got)
	}
}

func TestBytes(t *testing.T) {
	p := triangle(t)
	if p.Bytes() != 3*2+1 {
		t.Fatalf("Bytes = %d", p.Bytes())
	}
	p8, _ := New(8)
	if p8.Bytes() != 16+4 { // 28 bits → 4 bytes
		t.Fatalf("Bytes(8) = %d", p8.Bytes())
	}
}
