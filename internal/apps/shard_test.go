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
		"hybrid": {Threads: 2, MemoryBudget: 1 << 12, SpillDir: t.TempDir(), Predict: true},
		"disk":   {Threads: 2, MemoryBudget: 1, SpillDir: t.TempDir(), Predict: true},
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
		fsRaw, err1 := FSM(bgCtx, g, 3, 2, opt)
		fsRel, err2 := FSM(bgCtx, rg, 3, 2, opt)
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

// shardOpts splits the level-1 unit range of base into k degree-mass-balanced
// prefix ranges, one *run.Env per shard.
func shardOpts(g *graph.Graph, base *run.Env, k int, edges bool) []*run.Env {
	var bounds []int
	if edges {
		bounds = g.DegreeMassEdgeRanges(k)
	} else {
		bounds = g.DegreeMassVertexRanges(k)
	}
	opts := make([]*run.Env, k)
	for i := range opts {
		env := *base
		env.Seeds = &run.SeedRange{Lo: uint32(bounds[i]), Hi: uint32(bounds[i+1])}
		opts[i] = &env
	}
	return opts
}

// TestShardedConformance pins shards=1 ≡ shards=N for all four applications,
// for both raw and relabeled graphs. Runs under -race in CI.
func TestShardedConformance(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	raw := randomGraph(rng, 50, 200, 3)
	rel, err := graph.Relabel(raw)
	if err != nil {
		t.Fatal(err)
	}
	for name, g := range map[string]*graph.Graph{"raw": raw, "relabeled": rel} {
		base := &run.Env{Threads: 1}
		tcRef, err := TriangleCount(bgCtx, g, base)
		if err != nil {
			t.Fatal(err)
		}
		cqRef, err := CliqueCount(bgCtx, g, 4, base)
		if err != nil {
			t.Fatal(err)
		}
		moRef, err := MotifCount(bgCtx, g, 4, base)
		if err != nil {
			t.Fatal(err)
		}
		fsRef, err := FSM(bgCtx, g, 3, 2, base)
		if err != nil {
			t.Fatal(err)
		}
		for _, shards := range []int{1, 2, 3, 4} {
			vo := shardOpts(g, base, shards, false)
			eo := shardOpts(g, base, shards, true)
			tc, err := TriangleCountSharded(bgCtx, g, vo)
			if err != nil {
				t.Fatal(err)
			}
			if tc != tcRef {
				t.Fatalf("%s shards=%d: triangles %d, want %d", name, shards, tc, tcRef)
			}
			cq, err := CliqueCountSharded(bgCtx, g, 4, vo)
			if err != nil {
				t.Fatal(err)
			}
			if cq != cqRef {
				t.Fatalf("%s shards=%d: 4-cliques %d, want %d", name, shards, cq, cqRef)
			}
			mo, err := MotifCountSharded(bgCtx, g, 4, vo)
			if err != nil {
				t.Fatal(err)
			}
			samePatternCounts(t, name+" motifs sharded", mo, moRef)
			fs, _, err := FSMSharded(bgCtx, g, 3, 2, eo)
			if err != nil {
				t.Fatal(err)
			}
			samePatternCounts(t, name+" fsm sharded", fs, fsRef)
		}
	}
}

// TestShardedHybridConformance repeats the conformance check with every shard
// spilling through its own explorer (shared budget semantics live one layer
// up, in the public runSharded).
func TestShardedHybridConformance(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	g, err := graph.Relabel(randomGraph(rng, 40, 160, 3))
	if err != nil {
		t.Fatal(err)
	}
	base := &run.Env{Threads: 2, MemoryBudget: 1 << 10, SpillDir: t.TempDir(), Predict: true}
	moRef, err := MotifCount(bgCtx, g, 4, base)
	if err != nil {
		t.Fatal(err)
	}
	fsRef, err := FSM(bgCtx, g, 4, 2, base)
	if err != nil {
		t.Fatal(err)
	}
	mo, err := MotifCountSharded(bgCtx, g, 4, shardOpts(g, base, 3, false))
	if err != nil {
		t.Fatal(err)
	}
	samePatternCounts(t, "hybrid motifs sharded", mo, moRef)
	fs, _, err := FSMSharded(bgCtx, g, 4, 2, shardOpts(g, base, 3, true))
	if err != nil {
		t.Fatal(err)
	}
	samePatternCounts(t, "hybrid fsm sharded", fs, fsRef)
}

// TestShardedEmptyRanges pins that shard counts beyond the unit count (some
// shards get empty seed ranges) still merge to the exact result.
func TestShardedEmptyRanges(t *testing.T) {
	g := paperGraph(t)
	tc, err := TriangleCountSharded(bgCtx, g, shardOpts(g, &run.Env{Threads: 1}, 8, false))
	if err != nil {
		t.Fatal(err)
	}
	if tc != 3 {
		t.Fatalf("triangles with empty shards = %d, want 3", tc)
	}
	fs, _, err := FSMSharded(bgCtx, g, 3, 1, shardOpts(g, &run.Env{Threads: 1}, 9, true))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := FSM(bgCtx, g, 3, 1, &run.Env{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	samePatternCounts(t, "fsm empty shards", fs, ref)
}

// TestShardedCancellation pins that a cancelled context aborts every shard
// with ctx.Err and leaks nothing (the -race job catches unjoined goroutines
// touching freed state).
func TestShardedCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	g := randomGraph(rng, 40, 160, 2)
	ctx, cancel := context.WithCancel(bgCtx)
	cancel()
	if _, err := TriangleCountSharded(ctx, g, shardOpts(g, &run.Env{Threads: 1}, 3, false)); err == nil {
		t.Fatal("cancelled sharded run returned nil error")
	}
	if _, _, err := FSMSharded(ctx, g, 3, 1, shardOpts(g, &run.Env{Threads: 1}, 3, true)); err == nil {
		t.Fatal("cancelled sharded FSM returned nil error")
	}
}
