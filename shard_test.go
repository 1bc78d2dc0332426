package kaleido

import (
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"
)

// starGraph builds a graph whose degree order differs from its id order, so
// the build-time relabel pass is a real permutation: vertex 5 is the hub.
func starGraph(t testing.TB) *Graph {
	t.Helper()
	b := NewGraphBuilder(6)
	for v := uint32(0); v < 5; v++ {
		b.AddEdge(5, v)
		b.SetLabel(v, uint16(v%2))
	}
	b.AddEdge(0, 1)
	b.SetLabel(5, 1)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if !g.Relabeled() {
		t.Fatal("star graph not relabeled")
	}
	return g
}

// TestRelabeledGraphAccessors pins the id-translation contract of the public
// Graph surface: labels, adjacency and neighbor lists answer in the caller's
// original ids even though the internal layout is degree-ordered.
func TestRelabeledGraphAccessors(t *testing.T) {
	g := starGraph(t)
	if got := g.Label(5); got != 1 {
		t.Fatalf("Label(5) = %d, want 1", got)
	}
	if got := g.Label(3); got != 1 {
		t.Fatalf("Label(3) = %d, want 1", got)
	}
	if !g.HasEdge(5, 2) || !g.HasEdge(2, 5) || !g.HasEdge(0, 1) {
		t.Fatal("existing edges not found under original ids")
	}
	if g.HasEdge(2, 3) {
		t.Fatal("HasEdge(2,3) = true, want false")
	}
	want := []uint32{0, 1, 2, 3, 4}
	got := g.Neighbors(5)
	if len(got) != len(want) {
		t.Fatalf("Neighbors(5) = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Neighbors(5) = %v, want %v", got, want)
		}
	}
}

// TestMinerOriginalIDs pins that a Miner over a relabeled graph hands
// original vertex ids to ForEach, ExpandVisit and the user filter.
func TestMinerOriginalIDs(t *testing.T) {
	g := starGraph(t)
	edges := map[string]bool{}
	for v := uint32(0); v < 5; v++ {
		edges[fmt.Sprint([]uint32{v, 5})] = true
	}
	edges[fmt.Sprint([]uint32{0, 1})] = true

	m, err := g.NewMiner(bgCtx, VertexInduced, Config{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	checkEdge := func(what string, u, v uint32) {
		a, b := u, v
		if a > b {
			a, b = b, a
		}
		if !edges[fmt.Sprint([]uint32{a, b})] {
			t.Errorf("%s: (%d,%d) is not an original-id edge", what, u, v)
		}
	}
	// The depth-1→2 expansion enumerates exactly the edge set; the filter and
	// the visitor must both observe it in original ids.
	err = m.ExpandVisit(bgCtx, func(_ int, emb []uint32, cand uint32) bool {
		checkEdge("filter", emb[0], cand)
		return true
	}, func(_ int, emb []uint32, cand uint32) error {
		checkEdge("visit", emb[0], cand)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Expand(bgCtx, nil); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex // ForEach calls back from both workers
	var got []string
	if err := m.ForEach(bgCtx, func(_ int, emb []uint32) error {
		u, v := emb[0], emb[1]
		if u > v {
			u, v = v, u
		}
		mu.Lock()
		got = append(got, fmt.Sprint([]uint32{u, v}))
		mu.Unlock()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	sort.Strings(got)
	if len(got) != len(edges) {
		t.Fatalf("ForEach saw %d edges, want %d", len(got), len(edges))
	}
	for _, e := range got {
		if !edges[e] {
			t.Fatalf("ForEach embedding %s is not an original-id edge", e)
		}
	}
}

// samePublicCounts compares result lists exactly — counts, supports and the
// representative pattern of every class, which is the class's smallest
// encoding and so the same for every thread and shard count.
func samePublicCounts(t *testing.T, label string, got, want []PatternCount) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d patterns, want %d", label, len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("%s: pattern %d differs: %+v vs %+v", label, i, got[i], want[i])
		}
	}
}

// TestConfigShardsConformance pins Config.Shards: sharded one-shot runs give
// results identical to unsharded ones, in memory and under a budget.
func TestConfigShardsConformance(t *testing.T) {
	g, err := Synthetic(400, 1600, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	base := Config{Threads: 2}
	tcRef, err := g.Triangles(bgCtx, base)
	if err != nil {
		t.Fatal(err)
	}
	cqRef, err := g.Cliques(bgCtx, 4, base)
	if err != nil {
		t.Fatal(err)
	}
	moRef, err := g.Motifs(bgCtx, 4, base)
	if err != nil {
		t.Fatal(err)
	}
	fsRef, err := g.FSM(bgCtx, 3, 40, base)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{2, 4} {
		cfg := base
		cfg.Shards = shards
		var stats Stats
		cfg.Stats = &stats
		tc, err := g.Triangles(bgCtx, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if tc != tcRef {
			t.Fatalf("shards=%d: triangles %d, want %d", shards, tc, tcRef)
		}
		if stats.PeakBytes == 0 {
			t.Fatalf("shards=%d: no peak recorded", shards)
		}
		cq, err := g.Cliques(bgCtx, 4, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if cq != cqRef {
			t.Fatalf("shards=%d: 4-cliques %d, want %d", shards, cq, cqRef)
		}
		mo, err := g.Motifs(bgCtx, 4, cfg)
		if err != nil {
			t.Fatal(err)
		}
		samePublicCounts(t, fmt.Sprintf("motifs shards=%d", shards), mo, moRef)
		fs, err := g.FSM(bgCtx, 3, 40, cfg)
		if err != nil {
			t.Fatal(err)
		}
		samePublicCounts(t, fmt.Sprintf("fsm shards=%d", shards), fs, fsRef)
	}

	// Sharded under a budget: the shards share it and spill coherently.
	hybrid := Config{Threads: 2, Shards: 3, MemoryBudget: 64 << 10, SpillDir: t.TempDir()}
	var hstats Stats
	hybrid.Stats = &hstats
	mo, err := g.Motifs(bgCtx, 4, hybrid)
	if err != nil {
		t.Fatal(err)
	}
	samePublicCounts(t, "hybrid motifs shards=3", mo, moRef)
	if hstats.WriteBytes == 0 || hstats.SpilledParts == 0 {
		t.Fatalf("sharded hybrid run recorded no spill: %+v", hstats)
	}
}

// TestEngineRunSharded drives the explicit sharded-job API: merged counts,
// patterns and stats, under the engine's shared budget.
func TestEngineRunSharded(t *testing.T) {
	g, err := Synthetic(400, 1600, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	moRef, err := g.Motifs(bgCtx, 4, Config{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	var moTotal uint64
	for _, pc := range moRef {
		moTotal += pc.Count
	}
	fsRef, err := g.FSM(bgCtx, 3, 40, Config{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}

	eng := &Engine{MemoryBudget: 256 << 10, SpillDir: t.TempDir(), Threads: 2}
	res, err := eng.RunSharded(bgCtx, Job{Graph: g, App: AppMotifs, K: 4}, 3)
	if err != nil {
		t.Fatal(err)
	}
	samePublicCounts(t, "engine motifs", res.Patterns, moRef)
	if res.Count != moTotal {
		t.Fatalf("motif Count = %d, want %d", res.Count, moTotal)
	}
	if res.Stats.PeakBytes == 0 {
		t.Fatalf("no peak in merged stats: %+v", res.Stats)
	}
	res, err = eng.RunSharded(bgCtx, Job{Graph: g, App: AppFSM, K: 3, Support: 40}, 3)
	if err != nil {
		t.Fatal(err)
	}
	samePublicCounts(t, "engine fsm", res.Patterns, fsRef)
	if res.Count == 0 {
		t.Fatal("FSM fused aggregation reported zero final-level embeddings")
	}
	tres, err := eng.RunSharded(bgCtx, Job{Graph: g, App: AppTriangles}, 4)
	if err != nil {
		t.Fatal(err)
	}
	tcRef, err := g.Triangles(bgCtx, Config{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if tres.Count != tcRef {
		t.Fatalf("engine triangles = %d, want %d", tres.Count, tcRef)
	}

	if _, err := eng.RunSharded(bgCtx, Job{App: AppTriangles}, 2); err == nil {
		t.Fatal("sharded job without a graph accepted")
	}
	if _, err := eng.RunSharded(bgCtx, Job{Graph: g, App: App(99)}, 2); err == nil {
		t.Fatal("unknown app accepted")
	}
}

// TestConfigShardsValidation pins rejection of negative shard counts.
func TestConfigShardsValidation(t *testing.T) {
	g := paperGraph(t)
	if _, err := g.Triangles(bgCtx, Config{Shards: -1}); err == nil {
		t.Fatal("negative Shards accepted")
	}
}
