package arabesque

import (
	"context"
	"math/rand"
	"testing"

	"kaleido/internal/apps"
	"kaleido/internal/graph"
	"kaleido/internal/iso"
	"kaleido/internal/pattern"
	"kaleido/internal/run"
)

var bgCtx = context.Background()

func paperGraph(t testing.TB) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(5)
	for _, e := range [][2]uint32{{0, 1}, {0, 4}, {1, 4}, {1, 2}, {2, 3}, {2, 4}, {3, 4}} {
		b.AddEdge(e[0], e[1])
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func randomGraph(rng *rand.Rand, n, m, labels int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i < m; i++ {
		b.AddEdge(uint32(rng.Intn(n)), uint32(rng.Intn(n)))
	}
	for v := 0; v < n; v++ {
		b.SetLabel(uint32(v), graph.Label(rng.Intn(labels)))
	}
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

func TestODAGRoundTrip(t *testing.T) {
	// An ODAG fed the paper's canonical 3-embeddings must enumerate exactly
	// those embeddings back (crossed paths are rejected by the re-check).
	g := paperGraph(t)
	e, err := NewEngine(g, VertexInduced, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Init(nil); err != nil {
		t.Fatal(err)
	}
	if err := e.Expand(nil); err != nil {
		t.Fatal(err)
	}
	if err := e.Expand(nil); err != nil {
		t.Fatal(err)
	}
	n, err := e.Count()
	if err != nil {
		t.Fatal(err)
	}
	if n != 8 {
		t.Fatalf("3-embeddings = %d, want 8 (paper Fig. 3)", n)
	}
}

func TestTriangleCountMatchesKaleido(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 8; trial++ {
		g := randomGraph(rng, 10+rng.Intn(20), rng.Intn(80), 2)
		want, err := apps.TriangleCount(bgCtx, g, &run.Env{Threads: 2})
		if err != nil {
			t.Fatal(err)
		}
		got, err := TriangleCount(g, Options{Threads: 1 + rng.Intn(3)})
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("trial %d: arabesque triangles = %d, kaleido = %d", trial, got, want)
		}
	}
}

func TestCliqueCountMatchesKaleido(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 6; trial++ {
		g := randomGraph(rng, 12+rng.Intn(12), rng.Intn(70), 2)
		for k := 3; k <= 4; k++ {
			want, err := apps.CliqueCount(bgCtx, g, k, &run.Env{Threads: 2})
			if err != nil {
				t.Fatal(err)
			}
			got, err := CliqueCount(g, k, Options{Threads: 2})
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("trial %d k=%d: arabesque cliques = %d, kaleido = %d", trial, k, got, want)
			}
		}
	}
}

func TestMotifCountMatchesKaleido(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 5; trial++ {
		g := randomGraph(rng, 10+rng.Intn(8), rng.Intn(40), 1)
		for k := 3; k <= 4; k++ {
			want, err := apps.MotifCount(bgCtx, g, k, &run.Env{Threads: 2})
			if err != nil {
				t.Fatal(err)
			}
			got, err := MotifCount(g, k, Options{Threads: 2})
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("trial %d k=%d: %d motif classes vs %d", trial, k, len(got), len(want))
			}
			for i := range got {
				if got[i].Count != want[i].Count || !iso.Isomorphic(got[i].Pattern, want[i].Pattern) {
					t.Fatalf("trial %d k=%d: class %d differs: %v/%d vs %v/%d",
						trial, k, i, got[i].Pattern, got[i].Count, want[i].Pattern, want[i].Count)
				}
			}
		}
	}
}

// TestFSMMatchesKaleido: same patterns, counts and reported supports —
// exact for single edges (k = 2), saturated at the threshold above.
func TestFSMMatchesKaleido(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 5; trial++ {
		g := randomGraph(rng, 12+rng.Intn(10), rng.Intn(40), 2)
		for _, k := range []int{2, 4} {
			for _, support := range []uint64{1, 2, 4} {
				want, _, err := apps.FSM(bgCtx, g, k, support, &run.Env{Threads: 2})
				if err != nil {
					t.Fatal(err)
				}
				got, err := FSM(g, k, support, Options{Threads: 2})
				if err != nil {
					t.Fatal(err)
				}
				wp := make([]*pattern.Pattern, len(want))
				wc := make([]uint64, len(want))
				for i := range want {
					wp[i], wc[i] = want[i].Pattern, want[i].Count
				}
				matchCounts(t, got, wp, wc)
				for _, pc := range got {
					for _, w := range want {
						if iso.Isomorphic(pc.Pattern, w.Pattern) && pc.Support != w.Support {
							t.Fatalf("k=%d s=%d: %v support %d, kaleido %d", k, support, pc.Pattern, pc.Support, w.Support)
						}
					}
				}
			}
		}
	}
}

func TestEngineValidation(t *testing.T) {
	if _, err := NewEngine(nil, VertexInduced, 1, nil); err == nil {
		t.Fatal("nil graph accepted")
	}
	g := paperGraph(t)
	e, _ := NewEngine(g, VertexInduced, 1, nil)
	if err := e.Init(nil); err != nil {
		t.Fatal(err)
	}
	if err := e.Init(nil); err == nil {
		t.Fatal("double init accepted")
	}
	if _, err := CliqueCount(g, 1, Options{}); err == nil {
		t.Fatal("k=1 clique accepted")
	}
	if _, err := FSM(g, 1, 1, Options{}); err == nil {
		t.Fatal("k=1 FSM accepted")
	}
	if _, err := FSM(g, 3, 0, Options{}); err == nil {
		t.Fatal("support=0 accepted")
	}
	if _, err := MotifCount(g, 1, Options{}); err == nil {
		t.Fatal("k=1 motif accepted")
	}
}

func TestODAGBytesGrow(t *testing.T) {
	g := paperGraph(t)
	e, _ := NewEngine(g, VertexInduced, 1, nil)
	if err := e.Init(nil); err != nil {
		t.Fatal(err)
	}
	b1 := e.Bytes()
	if err := e.Expand(nil); err != nil {
		t.Fatal(err)
	}
	if e.Bytes() <= b1 {
		t.Fatalf("ODAG bytes did not grow: %d → %d", b1, e.Bytes())
	}
}

// matchCounts compares two result sets as multisets under isomorphism.
func matchCounts(t *testing.T, got []PatternCount, wantPats []*pattern.Pattern, wantCounts []uint64) {
	t.Helper()
	if len(got) != len(wantPats) {
		t.Fatalf("%d patterns, want %d", len(got), len(wantPats))
	}
	used := make([]bool, len(wantPats))
	for _, pc := range got {
		found := false
		for i := range wantPats {
			if used[i] || pc.Count != wantCounts[i] {
				continue
			}
			if iso.Isomorphic(pc.Pattern, wantPats[i]) {
				used[i] = true
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("pattern %v (count %d) has no match", pc.Pattern, pc.Count)
		}
	}
}
