package graph

import (
	"bytes"
	"math/rand"
	"testing"
)

// skewedGraph builds a deterministic pseudo-random labeled graph with a
// skewed degree distribution (a few heavy vertices) for relabel tests.
func skewedGraph(t *testing.T, n, m int, seed int64) *Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder(n)
	for i := 0; i < m; i++ {
		// Square the first endpoint draw toward 0 to create hubs.
		u := uint32(float64(n) * rng.Float64() * rng.Float64())
		v := uint32(rng.Intn(n))
		if u >= uint32(n) {
			u = uint32(n - 1)
		}
		b.AddEdge(u, v)
	}
	for v := 0; v < n; v++ {
		b.SetLabel(uint32(v), Label(rng.Intn(5)))
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestRelabelDegreeOrderAndPermutation(t *testing.T) {
	g := skewedGraph(t, 500, 3000, 1)
	rg, err := Relabel(g)
	if err != nil {
		t.Fatal(err)
	}
	if !rg.Relabeled() || g.Relabeled() {
		t.Fatal("relabel flag wrong")
	}
	if rg.N() != g.N() || rg.M() != g.M() || rg.NumLabels() != g.NumLabels() {
		t.Fatalf("shape changed: %d/%d/%d vs %d/%d/%d", rg.N(), rg.M(), rg.NumLabels(), g.N(), g.M(), g.NumLabels())
	}
	// Ids are ordered by nonincreasing degree.
	for v := 1; v < rg.N(); v++ {
		if rg.Degree(uint32(v)) > rg.Degree(uint32(v-1)) {
			t.Fatalf("degree not ordered at %d: %d > %d", v, rg.Degree(uint32(v)), rg.Degree(uint32(v-1)))
		}
	}
	// The permutation is a bijection and OrigID/NewID invert each other.
	seen := make([]bool, rg.N())
	for v := 0; v < rg.N(); v++ {
		ov := rg.OrigID(uint32(v))
		if seen[ov] {
			t.Fatalf("orig id %d mapped twice", ov)
		}
		seen[ov] = true
		if rg.NewID(ov) != uint32(v) {
			t.Fatalf("NewID(OrigID(%d)) = %d", v, rg.NewID(ov))
		}
		if rg.Label(uint32(v)) != g.Label(ov) {
			t.Fatalf("label of %d (orig %d) changed", v, ov)
		}
		if rg.Degree(uint32(v)) != g.Degree(ov) {
			t.Fatalf("degree of %d (orig %d) changed", v, ov)
		}
	}
	// Isomorphism: every relabeled edge exists under original ids and the
	// counts match, so the edge sets correspond 1:1.
	for _, e := range rg.Edges() {
		if !g.HasEdge(rg.OrigID(e.U), rg.OrigID(e.V)) {
			t.Fatalf("edge (%d,%d) has no original counterpart", e.U, e.V)
		}
	}
	// Idempotent.
	rg2, err := Relabel(rg)
	if err != nil {
		t.Fatal(err)
	}
	if rg2 != rg {
		t.Fatal("relabel of a relabeled graph is not a no-op")
	}
	// Identity translation on a raw graph.
	if g.OrigID(7) != 7 || g.NewID(7) != 7 {
		t.Fatal("identity translation broken on raw graph")
	}
}

func TestRelabelBinaryRoundTrip(t *testing.T) {
	g := skewedGraph(t, 300, 1500, 2)
	rg, err := Relabel(g)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rg.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Relabeled() {
		t.Fatal("round trip dropped the relabel flag")
	}
	if back.N() != rg.N() || back.M() != rg.M() {
		t.Fatalf("round trip shape %d/%d, want %d/%d", back.N(), back.M(), rg.N(), rg.M())
	}
	for v := 0; v < back.N(); v++ {
		if back.OrigID(uint32(v)) != rg.OrigID(uint32(v)) {
			t.Fatalf("permutation differs at %d: %d vs %d", v, back.OrigID(uint32(v)), rg.OrigID(uint32(v)))
		}
		if back.Label(uint32(v)) != rg.Label(uint32(v)) {
			t.Fatalf("label differs at %d", v)
		}
	}
	for e := 0; e < back.M(); e++ {
		if back.EdgeAt(uint32(e)) != rg.EdgeAt(uint32(e)) {
			t.Fatalf("edge %d differs", e)
		}
	}
	// A raw graph still round-trips without the flag.
	buf.Reset()
	if err := g.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	if back, err = ReadBinary(&buf); err != nil {
		t.Fatal(err)
	}
	if back.Relabeled() {
		t.Fatal("raw graph came back relabeled")
	}
}

func TestRelabelHubPrefix(t *testing.T) {
	// With degree-ordered ids every hub must sit in a dense low-id prefix.
	g := skewedGraph(t, 800, 20000, 4)
	rg, err := Relabel(g)
	if err != nil {
		t.Fatal(err)
	}
	if rg.HubThreshold() == 0 {
		t.Skip("no hubs at this size")
	}
	lastHub := -1
	for v := 0; v < rg.N(); v++ {
		if rg.IsHub(uint32(v)) {
			if lastHub != v-1 {
				t.Fatalf("hub %d not contiguous with previous hub %d", v, lastHub)
			}
			lastHub = v
		}
	}
	if lastHub < 0 {
		t.Skip("no hubs at this size")
	}
}
