package apps

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"kaleido/internal/explore"
	"kaleido/internal/graph"
	"kaleido/internal/iso"
	"kaleido/internal/run"
)

// regimes returns the three storage regimes of the differential tests:
// all-memory, hybrid (some parts spill), and disk (everything spills).
func storageRegimes(t *testing.T) map[string]*run.Env {
	t.Helper()
	return map[string]*run.Env{
		"mem":    {Threads: 2},
		"hybrid": {Threads: 2, MemoryBudget: 1 << 12, SpillDir: t.TempDir()},
		"disk":   {Threads: 2, MemoryBudget: 1, SpillDir: t.TempDir()},
	}
}

func samePatternCounts(t *testing.T, label string, got, want []PatternCount) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d patterns, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].Count != want[i].Count || got[i].Support != want[i].Support ||
			!iso.Isomorphic(got[i].Pattern, want[i].Pattern) {
			t.Fatalf("%s: pattern %d differs: %+v vs %+v", label, i, got[i], want[i])
		}
	}
}

// TestAppsRelabelDifferential pins that degree-order relabeling is invisible
// to every application: identical counts and pattern lists on the raw and the
// relabeled graph, in every storage regime.
func TestAppsRelabelDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := randomGraph(rng, 60, 240, 3)
	rg, err := graph.Relabel(g)
	if err != nil {
		t.Fatal(err)
	}
	if !rg.Relabeled() {
		t.Fatal("random graph relabeled to identity; pick a different seed")
	}
	for name, opt := range storageRegimes(t) {
		tcRaw, err1 := TriangleCount(bgCtx, g, opt)
		tcRel, err2 := TriangleCount(bgCtx, rg, opt)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if tcRaw != tcRel {
			t.Fatalf("%s: triangles %d raw vs %d relabeled", name, tcRaw, tcRel)
		}
		cqRaw, err1 := CliqueCount(bgCtx, g, 4, opt)
		cqRel, err2 := CliqueCount(bgCtx, rg, 4, opt)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if cqRaw != cqRel {
			t.Fatalf("%s: 4-cliques %d raw vs %d relabeled", name, cqRaw, cqRel)
		}
		moRaw, err1 := MotifCount(bgCtx, g, 4, opt)
		moRel, err2 := MotifCount(bgCtx, rg, 4, opt)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		samePatternCounts(t, name+" motifs", moRel, moRaw)
		fsRaw, _, err1 := FSM(bgCtx, g, 3, 2, opt)
		fsRel, _, err2 := FSM(bgCtx, rg, 3, 2, opt)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		samePatternCounts(t, name+" fsm", fsRel, fsRaw)
	}
}

// embeddingSet explores to depth k and returns the multiset of embeddings in
// original-id space, each sorted, as strings.
func embeddingSet(t *testing.T, g *graph.Graph, k int) []string {
	t.Helper()
	e, err := explore.New(explore.Config{Graph: g, Mode: explore.VertexInduced, Env: &run.Env{Threads: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.InitVertices(nil); err != nil {
		t.Fatal(err)
	}
	for e.Depth() < k {
		if err := e.Expand(bgCtx, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	var out []string
	err = e.ForEach(bgCtx, func(_ int, emb []uint32) error {
		orig := make([]uint32, len(emb))
		for i, v := range emb {
			orig[i] = g.OrigID(v)
		}
		sort.Slice(orig, func(i, j int) bool { return orig[i] < orig[j] })
		out = append(out, fmt.Sprint(orig))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(out)
	return out
}

// TestRelabelEmbeddingsIdentical pins that the raw and relabeled graphs
// enumerate the same vertex-induced embeddings once ids are mapped back.
func TestRelabelEmbeddingsIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	g := randomGraph(rng, 40, 150, 2)
	rg, err := graph.Relabel(g)
	if err != nil {
		t.Fatal(err)
	}
	raw := embeddingSet(t, g, 3)
	rel := embeddingSet(t, rg, 3)
	if len(raw) != len(rel) {
		t.Fatalf("%d raw embeddings vs %d relabeled", len(raw), len(rel))
	}
	for i := range raw {
		if raw[i] != rel[i] {
			t.Fatalf("embedding %d: %q raw vs %q relabeled", i, raw[i], rel[i])
		}
	}
}

// TestAppsCancelledContext pins that an already-cancelled context stops each
// application with an error before it returns a result.
func TestAppsCancelledContext(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	g := randomGraph(rng, 40, 160, 2)
	ctx, cancel := context.WithCancel(bgCtx)
	cancel()
	env := &run.Env{Threads: 1}
	if _, err := TriangleCount(ctx, g, env); err == nil {
		t.Error("cancelled TriangleCount returned nil error")
	}
	if _, err := CliqueCount(ctx, g, 4, env); err == nil {
		t.Error("cancelled CliqueCount returned nil error")
	}
	if _, err := MotifCount(ctx, g, 4, env); err == nil {
		t.Error("cancelled MotifCount returned nil error")
	}
	if _, _, err := FSM(ctx, g, 3, 1, env); err == nil {
		t.Error("cancelled FSM returned nil error")
	}
}
