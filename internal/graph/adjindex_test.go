package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// hubGraph builds a random graph whose hub index is forced on with a low
// threshold, so small tests exercise the bitmap path.
func hubGraph(t testing.TB, seed int64, n, m, threshold int) *Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder(n)
	for i := 0; i < m; i++ {
		b.AddEdge(uint32(rng.Intn(n)), uint32(rng.Intn(n)))
	}
	b.SetHubThreshold(threshold)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestHubIndexHasEdgeAgreesWithScan(t *testing.T) {
	for _, threshold := range []int{1, 2, 4, 8} {
		g := hubGraph(t, int64(threshold), 40, 200, threshold)
		if g.HubThreshold() != threshold {
			t.Fatalf("HubThreshold = %d, want %d", g.HubThreshold(), threshold)
		}
		hubs := 0
		for v := uint32(0); v < uint32(g.N()); v++ {
			if g.IsHub(v) {
				hubs++
				if g.Degree(v) < threshold {
					t.Fatalf("vertex %d is hub with degree %d < %d", v, g.Degree(v), threshold)
				}
			} else if g.Degree(v) >= threshold {
				t.Fatalf("vertex %d not hub with degree %d ≥ %d", v, g.Degree(v), threshold)
			}
		}
		if threshold <= 2 && hubs == 0 {
			t.Fatal("no hubs at tiny threshold")
		}
		f := func(u, v uint8) bool {
			a, b := uint32(u)%40, uint32(v)%40
			want := false
			for _, w := range g.Neighbors(a) {
				if w == b {
					want = true
				}
			}
			return g.HasEdge(a, b) == want && g.HasEdge(b, a) == want
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
			t.Fatalf("threshold %d: %v", threshold, err)
		}
	}
}

func TestHubIndexDisabled(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	b := NewBuilder(20)
	for i := 0; i < 60; i++ {
		b.AddEdge(uint32(rng.Intn(20)), uint32(rng.Intn(20)))
	}
	b.SetHubThreshold(-1)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.HubThreshold() != 0 {
		t.Fatalf("disabled index reports threshold %d", g.HubThreshold())
	}
	for v := uint32(0); v < uint32(g.N()); v++ {
		if g.IsHub(v) {
			t.Fatalf("vertex %d is hub with index disabled", v)
		}
	}
	// HasEdge still works through the binary-search fallback.
	if !g.HasEdge(g.EdgeAt(0).U, g.EdgeAt(0).V) {
		t.Fatal("edge 0 missing without hub index")
	}
}

func TestAutoHubThreshold(t *testing.T) {
	if got := autoHubThreshold(10); got != MinHubDegree {
		t.Fatalf("autoHubThreshold(10) = %d, want %d", got, MinHubDegree)
	}
	// 2m = 20000 → √20000 ≈ 141 > MinHubDegree.
	if got := autoHubThreshold(10000); got < 100 || got > 200 {
		t.Fatalf("autoHubThreshold(10000) = %d", got)
	}
}

func TestHubIndexBytesAccounted(t *testing.T) {
	g := hubGraph(t, 11, 100, 600, 1) // threshold 1: every non-isolated vertex is a hub
	plain := hubGraph(t, 11, 100, 600, -1)
	if g.Bytes() <= plain.Bytes() {
		t.Fatalf("hub index not accounted: %d ≤ %d", g.Bytes(), plain.Bytes())
	}
}

func TestNeighborMarkerFreshIsEmpty(t *testing.T) {
	g := paperGraph(t)
	m := g.NewNeighborMarker()
	for v := uint32(0); v < uint32(g.N()); v++ {
		if m.Marked(v) {
			t.Fatalf("fresh marker reports vertex %d as marked", v)
		}
	}
}

func TestHubIndexMemoryCap(t *testing.T) {
	// n large relative to m: one bitmap row costs 128 B while the cap is
	// 8m = 400 B, so at most 3 rows fit; a threshold of 1 must be raised
	// instead of indexing every non-isolated vertex.
	rng := rand.New(rand.NewSource(13))
	b := NewBuilder(1000)
	for i := 0; i < 50; i++ {
		b.AddEdge(uint32(rng.Intn(1000)), uint32(rng.Intn(1000)))
	}
	for v := uint32(1); v <= 40; v++ {
		b.AddEdge(0, v) // a genuine hub that must survive the cap
	}
	b.SetHubThreshold(1)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if !g.IsHub(0) {
		t.Fatal("star center lost its hub row under the cap")
	}
	rowBytes := ((g.N() + 63) / 64) * 8
	maxRows := 8 * g.M() / rowBytes
	hubs := 0
	minHubDeg := int(^uint(0) >> 1)
	maxNonHubDeg := 0
	for v := uint32(0); v < uint32(g.N()); v++ {
		if g.IsHub(v) {
			hubs++
			if g.Degree(v) < minHubDeg {
				minHubDeg = g.Degree(v)
			}
		} else if g.Degree(v) > maxNonHubDeg {
			maxNonHubDeg = g.Degree(v)
		}
	}
	if hubs > maxRows {
		t.Fatalf("%d hub rows exceed the %d-row cap", hubs, maxRows)
	}
	// The raised threshold keeps only the highest-degree vertices.
	if hubs > 0 && minHubDeg < g.HubThreshold() {
		t.Fatalf("hub with degree %d below effective threshold %d", minHubDeg, g.HubThreshold())
	}
	if maxNonHubDeg >= g.HubThreshold() {
		t.Fatalf("non-hub with degree %d at or above effective threshold %d", maxNonHubDeg, g.HubThreshold())
	}
	// Adjacency semantics unchanged under the capped index.
	for _, e := range g.Edges() {
		if !g.HasEdge(e.U, e.V) {
			t.Fatalf("edge {%d,%d} missing", e.U, e.V)
		}
	}
}

func TestNeighborMarkerBatch(t *testing.T) {
	g := paperGraph(t) // edges {0-1,0-4,1-4,1-2,2-3,2-4,3-4}
	m := g.NewNeighborMarker()

	m.Begin()
	for _, v := range [...]uint32{0, 1, 2, 4} { // N(0) ∪ N(1)
		m.Mark(v)
	}
	for v, want := range map[uint32]bool{0: true, 1: true, 2: true, 3: false, 4: true} {
		if m.Marked(v) != want {
			t.Errorf("Marked(%d) = %v, want %v", v, m.Marked(v), want)
		}
	}

	// A new batch invalidates everything in O(1).
	m.Begin()
	for v := uint32(0); v < 5; v++ {
		if m.Marked(v) {
			t.Fatalf("vertex %d still marked after Begin", v)
		}
	}
	m.Mark(3)
	m.Mark(3)
	if !m.Marked(3) || m.Marked(2) {
		t.Fatalf("Marked(3) = %v, Marked(2) = %v after Mark(3)", m.Marked(3), m.Marked(2))
	}

	// Unmark undoes one Mark and keeps the rest of the batch.
	m.Mark(1)
	m.Unmark(3)
	if m.Marked(3) || !m.Marked(1) {
		t.Fatalf("Marked(3) = %v, Marked(1) = %v after Unmark(3)", m.Marked(3), m.Marked(1))
	}
}

func TestNeighborMarkerEpochWrap(t *testing.T) {
	g := paperGraph(t)
	m := g.NewNeighborMarker()
	m.Begin()
	m.Mark(2)
	m.epoch = ^uint32(0) // force the next Begin to wrap
	m.Begin()
	if m.epoch != 1 {
		t.Fatalf("epoch after wrap = %d, want 1", m.epoch)
	}
	for v := uint32(0); v < 5; v++ {
		if m.Marked(v) {
			t.Fatalf("stale mark on %d survived epoch wrap", v)
		}
	}
	m.Mark(4)
	if !m.Marked(4) {
		t.Fatal("marking broken after wrap")
	}
}

// TestNeighborMarkerMatchesHasEdge cross-checks the marker against HasEdge
// over random working sets.
func TestNeighborMarkerMatchesHasEdge(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	g := randomGraph(rng, 50, 300)
	m := g.NewNeighborMarker()
	for trial := 0; trial < 200; trial++ {
		set := make([]uint32, 1+rng.Intn(4))
		for i := range set {
			set[i] = uint32(rng.Intn(g.N()))
		}
		m.Begin()
		for _, v := range set {
			for _, u := range g.Neighbors(v) {
				m.Mark(u)
			}
		}
		for probe := 0; probe < 20; probe++ {
			u := uint32(rng.Intn(g.N()))
			want := false
			for _, v := range set {
				want = want || g.HasEdge(v, u)
			}
			if got := m.Marked(u); got != want {
				t.Fatalf("trial %d: Marked(%d) = %v, want %v (set %v)", trial, u, got, want, set)
			}
		}
	}
}
