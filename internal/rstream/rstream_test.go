package rstream

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

func opts(t *testing.T, parts, threads int) Options {
	return Options{Partitions: parts, Threads: threads, Dir: t.TempDir()}
}

func TestTriangleCountPaper(t *testing.T) {
	g := paperGraph(t)
	got, _, err := TriangleCount(g, opts(t, 4, 2))
	if err != nil {
		t.Fatal(err)
	}
	if got != 3 {
		t.Fatalf("triangles = %d, want 3", got)
	}
}

func TestTriangleCountMatchesKaleido(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 6; trial++ {
		g := randomGraph(rng, 12+rng.Intn(18), rng.Intn(80), 2)
		want, err := apps.TriangleCount(bgCtx, g, &run.Env{Threads: 2})
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := TriangleCount(g, opts(t, 1+rng.Intn(5), 1+rng.Intn(3)))
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("trial %d: rstream = %d, kaleido = %d", trial, got, want)
		}
	}
}

func TestCliqueCountMatchesKaleido(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 5; trial++ {
		g := randomGraph(rng, 10+rng.Intn(10), rng.Intn(60), 2)
		for k := 3; k <= 4; k++ {
			want, err := apps.CliqueCount(bgCtx, g, k, &run.Env{Threads: 2})
			if err != nil {
				t.Fatal(err)
			}
			got, stats, err := CliqueCount(g, k, opts(t, 4, 2))
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("trial %d k=%d: rstream = %d, kaleido = %d", trial, k, got, want)
			}
			if want > 0 && stats.IntermediateBytes == 0 {
				t.Fatalf("trial %d k=%d: no intermediate data recorded", trial, k)
			}
		}
	}
}

func TestMotifCountMatchesKaleido(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 4; trial++ {
		g := randomGraph(rng, 9+rng.Intn(6), rng.Intn(30), 1)
		for k := 3; k <= 4; k++ {
			want, err := apps.MotifCount(bgCtx, g, k, &run.Env{Threads: 2})
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := MotifCount(g, k, opts(t, 3, 2))
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("trial %d k=%d: %d motif classes vs %d", trial, k, len(got), len(want))
			}
			for i := range got {
				if got[i].Count != want[i].Count || !iso.Isomorphic(got[i].Pattern, want[i].Pattern) {
					t.Fatalf("trial %d k=%d class %d: %v/%d vs %v/%d",
						trial, k, i, got[i].Pattern, got[i].Count, want[i].Pattern, want[i].Count)
				}
			}
		}
	}
}

// TestFSMMatchesKaleido: with support 1 nothing is pruned and the two
// systems must agree exactly. With higher supports the paper's approximate
// MNI (early stop + tie merging) interacts with level-synchronous pruning
// differently across exploration models: RStream's set-based join reaches an
// embedding through ANY surviving edge subset, while Kaleido extends only
// the canonical prefix — so RStream's frequent set is a superset with
// counts at least as large. Either way a pattern both
// find reports the same support: saturated at the threshold.
func TestFSMMatchesKaleido(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 4; trial++ {
		g := randomGraph(rng, 12+rng.Intn(8), rng.Intn(35), 2)
		for _, support := range []uint64{1, 3} {
			want, _, err := apps.FSM(bgCtx, g, 4, support, &run.Env{Threads: 2})
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := FSM(g, 4, support, opts(t, 4, 2))
			if err != nil {
				t.Fatal(err)
			}
			if support == 1 {
				wp := make([]*pattern.Pattern, len(want))
				wc := make([]uint64, len(want))
				for i := range want {
					wp[i], wc[i] = want[i].Pattern, want[i].Count
				}
				matchCounts(t, got, wp, wc)
			} else if len(got) < len(want) {
				// Superset property for pruning supports.
				t.Fatalf("trial %d s=%d: rstream found %d patterns, kaleido %d", trial, support, len(got), len(want))
			}
			for _, w := range want {
				found := false
				for _, gpc := range got {
					if iso.Isomorphic(gpc.Pattern, w.Pattern) {
						found = true
						if gpc.Count < w.Count {
							t.Fatalf("trial %d s=%d: rstream count %d < kaleido %d for %v",
								trial, support, gpc.Count, w.Count, w.Pattern)
						}
						if gpc.Support != w.Support {
							t.Fatalf("trial %d s=%d: rstream reports support %d, kaleido %d for %v",
								trial, support, gpc.Support, w.Support, w.Pattern)
						}
						break
					}
				}
				if !found {
					t.Fatalf("trial %d s=%d: kaleido pattern %v missing from rstream", trial, support, w.Pattern)
				}
			}
		}
	}
}

func TestIntermediateDataBlowup(t *testing.T) {
	// The relational join must produce strictly more intermediate bytes than
	// the deduplicated output — the §6.2 blow-up behaviour.
	rng := rand.New(rand.NewSource(5))
	g := randomGraph(rng, 30, 120, 1)
	_, stats, err := MotifCount(g, 4, opts(t, 4, 2))
	if err != nil {
		t.Fatal(err)
	}
	if stats.IntermediateBytes < int64(g.M())*4*10 {
		t.Fatalf("intermediate bytes = %d, expected a joinblow-up well beyond the edge table", stats.IntermediateBytes)
	}
}

func TestValidation(t *testing.T) {
	g := paperGraph(t)
	if _, _, err := CliqueCount(g, 2, Options{}); err == nil {
		t.Fatal("k=2 clique accepted")
	}
	if _, _, err := FSM(g, 2, 1, Options{}); err == nil {
		t.Fatal("k=2 FSM accepted")
	}
	if _, _, err := FSM(g, 4, 0, Options{}); err == nil {
		t.Fatal("support 0 accepted")
	}
	if _, _, err := MotifCount(g, 1, Options{}); err == nil {
		t.Fatal("k=1 motif accepted")
	}
}

func TestPartitionCountInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g := randomGraph(rng, 15, 50, 2)
	var ref []PatternCount
	for _, parts := range []int{1, 3, 10} {
		got, _, err := MotifCount(g, 3, opts(t, parts, 2))
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = got
			continue
		}
		if len(got) != len(ref) {
			t.Fatalf("parts=%d: class count differs", parts)
		}
		for i := range got {
			if got[i].Count != ref[i].Count {
				t.Fatalf("parts=%d: counts differ", parts)
			}
		}
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
