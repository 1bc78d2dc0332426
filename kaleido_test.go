package kaleido

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
)

// paperGraph builds the Fig. 3 running example through the public API.
func paperGraph(t testing.TB) *Graph {
	t.Helper()
	b := NewGraphBuilder(5)
	for _, e := range [][2]uint32{{0, 1}, {0, 4}, {1, 4}, {1, 2}, {2, 3}, {2, 4}, {3, 4}} {
		b.AddEdge(e[0], e[1])
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestPublicTriangles(t *testing.T) {
	g := paperGraph(t)
	n, err := g.Triangles(bgCtx, Config{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("Triangles = %d, want 3", n)
	}
}

func TestPublicCliquesAndMotifs(t *testing.T) {
	g := paperGraph(t)
	c, err := g.Cliques(bgCtx, 3, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if c != 3 {
		t.Fatalf("Cliques(3) = %d, want 3", c)
	}
	motifs, err := g.Motifs(bgCtx, 3, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(motifs) != 2 || motifs[0].Count != 5 || motifs[1].Count != 3 {
		t.Fatalf("Motifs(3) = %+v, want chain:5, triangle:3", motifs)
	}
}

func TestPublicFSM(t *testing.T) {
	b := NewGraphBuilder(6)
	b.SetLabel(0, 0)
	b.SetLabel(1, 0)
	for v := uint32(2); v < 6; v++ {
		b.SetLabel(v, 1)
	}
	b.AddEdge(0, 2)
	b.AddEdge(0, 3)
	b.AddEdge(1, 4)
	b.AddEdge(1, 5)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := g.FSM(bgCtx, 3, 2, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Count != 2 || res[0].Support != 2 {
		t.Fatalf("FSM = %+v", res)
	}
	if res[0].Pattern.K != 3 || len(res[0].Pattern.Edges) != 2 {
		t.Fatalf("pattern = %v", res[0].Pattern)
	}
}

func TestPublicStatsAndHybrid(t *testing.T) {
	g := paperGraph(t)
	var stats Stats
	n, err := g.Triangles(bgCtx, Config{Stats: &stats})
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 || stats.PeakBytes == 0 {
		t.Fatalf("n=%d peak=%d", n, stats.PeakBytes)
	}
	var hstats Stats
	m, err := g.Motifs(bgCtx, 4, Config{MemoryBudget: 1, SpillDir: t.TempDir(), Stats: &hstats})
	if err != nil {
		t.Fatal(err)
	}
	if len(m) == 0 {
		t.Fatal("no 4-motifs found")
	}
	if hstats.WriteBytes == 0 {
		t.Fatal("hybrid run recorded no disk writes")
	}
	if hstats.SpilledLevels == 0 || hstats.SpilledParts < hstats.SpilledLevels {
		t.Fatalf("spill accounting: %d levels / %d parts", hstats.SpilledLevels, hstats.SpilledParts)
	}
}

// TestMinerLevelStats drives a Miner under a budget sized mid-level and
// reads the per-part placement through the public LevelStats surface.
func TestMinerLevelStats(t *testing.T) {
	g, err := Synthetic(300, 1200, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Reference run to size the budget between depth-2 and depth-3 CSEs.
	ref, err := g.NewMiner(bgCtx, VertexInduced, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	if err := ref.Expand(bgCtx, nil); err != nil {
		t.Fatal(err)
	}
	after2 := ref.Bytes()
	if err := ref.Expand(bgCtx, nil); err != nil {
		t.Fatal(err)
	}
	after3 := ref.Bytes()

	m, err := g.NewMiner(bgCtx, VertexInduced, Config{
		MemoryBudget: after2 + (after3-after2)/2,
		SpillDir:     t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for i := 0; i < 2; i++ {
		if err := m.Expand(bgCtx, nil); err != nil {
			t.Fatal(err)
		}
	}
	if m.Count() != ref.Count() {
		t.Fatalf("budgeted count %d != reference %d", m.Count(), ref.Count())
	}
	stats := m.LevelStats()
	if len(stats) != 3 {
		t.Fatalf("LevelStats len = %d, want 3", len(stats))
	}
	top := stats[2]
	if top.MemParts == 0 || top.DiskParts == 0 || top.DiskBytes == 0 {
		t.Fatalf("top level not hybrid: %+v", top)
	}
	if m.SpilledParts() < top.DiskParts || m.SpilledLevels() == 0 {
		t.Fatalf("spill counters: %d parts / %d levels", m.SpilledParts(), m.SpilledLevels())
	}
}

// TestMinerBaseLevelStat pins the base level's placement: one raw part of
// 4 bytes per vertex, whatever the budget — unbudgeted, all-disk (1 byte) or
// hybrid — and however many levels were built over it.
func TestMinerBaseLevelStat(t *testing.T) {
	g, err := Synthetic(300, 1200, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := g.NewMiner(bgCtx, VertexInduced, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	var sizes []int64
	for i := 0; i < 2; i++ {
		if err := ref.Expand(bgCtx, nil); err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, ref.Bytes())
	}
	for _, budget := range []int64{0, 1, sizes[0] + (sizes[1]-sizes[0])/2} {
		cfg := Config{MemoryBudget: budget}
		if budget > 0 {
			cfg.SpillDir = t.TempDir()
		}
		m, err := g.NewMiner(bgCtx, VertexInduced, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for depth := 1; depth <= 3; depth++ {
			if depth > 1 {
				if err := m.Expand(bgCtx, nil); err != nil {
					t.Fatal(err)
				}
			}
			got := m.LevelStats()[0]
			if got.MemParts != 1 || got.DiskParts != 0 || got.ResidentBytes != int64(4*g.N()) || got.Len != g.N() {
				t.Fatalf("budget %d, depth %d: base level %+v, want 1 mem part, 0 disk, %d bytes", budget, depth, got, 4*g.N())
			}
		}
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	g := paperGraph(t)
	if _, err := g.Triangles(bgCtx, Config{MemoryBudget: 10}); err == nil {
		t.Fatal("budget without spill dir accepted")
	}
	if _, err := g.Motifs(bgCtx, 3, Config{Iso: IsoAlgo(9)}); err == nil {
		t.Fatal("bad iso backend accepted")
	}
}

func TestLoadEdgeList(t *testing.T) {
	g, err := LoadEdgeList(strings.NewReader("0 1\n1 2\n2 0\n0 label=1\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 || g.M() != 3 || g.Label(0) != 1 {
		t.Fatalf("graph = %d/%d label=%d", g.N(), g.M(), g.Label(0))
	}
	n, err := g.Triangles(bgCtx, Config{})
	if err != nil || n != 1 {
		t.Fatalf("triangles = %d, %v", n, err)
	}
}

func TestDatasets(t *testing.T) {
	names := DatasetNames()
	if len(names) != 4 {
		t.Fatalf("datasets = %v", names)
	}
	g, err := Dataset("citeseer", t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3312 {
		t.Fatalf("citeseer N = %d", g.N())
	}
	if _, err := Dataset("nope", ""); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

func TestSynthetic(t *testing.T) {
	g, err := Synthetic(500, 1500, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 500 || g.NumLabels() != 4 {
		t.Fatalf("synthetic = %d/%d", g.N(), g.NumLabels())
	}
}

func TestMinerCustomApp(t *testing.T) {
	// A custom wedge counter (paths of length 2) through the Miner API.
	g := paperGraph(t)
	m, err := g.NewMiner(bgCtx, VertexInduced, Config{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for i := 0; i < 2; i++ {
		if err := m.Expand(bgCtx, nil); err != nil {
			t.Fatal(err)
		}
	}
	if m.Depth() != 3 || m.Count() != 8 {
		t.Fatalf("depth=%d count=%d, want 3, 8", m.Depth(), m.Count())
	}
	counts, err := m.AggregatePatterns(bgCtx)
	if err != nil {
		t.Fatal(err)
	}
	if len(counts) != 2 || counts[0].Count != 5 || counts[1].Count != 3 {
		t.Fatalf("patterns = %+v", counts)
	}
}

func TestMinerExpandCountAndVisit(t *testing.T) {
	// The terminal sinks through the public API: counting wedges (paths of
	// length 2) without materializing the 3-level, then visiting them.
	g := paperGraph(t)
	m, err := g.NewMiner(bgCtx, VertexInduced, Config{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := m.Expand(bgCtx, nil); err != nil {
		t.Fatal(err)
	}
	bytes := m.Bytes()
	n, err := m.ExpandCount(bgCtx, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != 8 {
		t.Fatalf("ExpandCount = %d, want 8 (paper s13..s20)", n)
	}
	if m.Depth() != 2 || m.Bytes() != bytes {
		t.Fatalf("counted expansion changed the CSE: depth=%d bytes=%d->%d", m.Depth(), bytes, m.Bytes())
	}
	var visited atomic.Int64
	err = m.ExpandVisit(bgCtx, nil, func(_ int, emb []uint32, cand uint32) error {
		if len(emb) != 2 {
			t.Errorf("visit emb len %d", len(emb))
		}
		visited.Add(1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if visited.Load() != 8 {
		t.Fatalf("ExpandVisit saw %d extensions, want 8", visited.Load())
	}
	// A worker-aware filter composes with the terminal sinks: only
	// extensions adjacent to every embedding vertex (triangles).
	tri, err := m.ExpandCount(bgCtx, func(_ int, emb []uint32, cand uint32) bool {
		for _, v := range emb {
			if !g.HasEdge(v, cand) {
				return false
			}
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if tri != 3 {
		t.Fatalf("filtered ExpandCount = %d, want 3 triangles", tri)
	}
}

func TestMinerEdgeInduced(t *testing.T) {
	g := paperGraph(t)
	m, err := g.NewMiner(bgCtx, EdgeInduced, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if m.Count() != 7 {
		t.Fatalf("edge 1-embeddings = %d, want 7", m.Count())
	}
	if err := m.Expand(bgCtx, nil); err != nil {
		t.Fatal(err)
	}
	if m.Count() == 0 {
		t.Fatal("no 2-edge embeddings")
	}
}

// aggregateMiner expands a fresh Miner steps times and returns its default
// aggregate.
func aggregateMiner(t *testing.T, g *Graph, mode Mode, steps int, cfg Config) []PatternCount {
	t.Helper()
	m, err := g.NewMiner(bgCtx, mode, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for i := 0; i < steps; i++ {
		if err := m.Expand(bgCtx, nil); err != nil {
			t.Fatal(err)
		}
	}
	res, err := m.AggregatePatterns(bgCtx)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestMinerEdgeInducedAggregate: AggregatePatterns on an edge-induced Miner
// builds each pattern from the embedding's edges (it used to index vertices
// with edge ids and fail) with the configured backend, and so equals FSM at
// support 1 — which prunes nothing — over the same 3-edge embeddings.
func TestMinerEdgeInducedAggregate(t *testing.T) {
	g, err := Synthetic(40, 90, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []IsoAlgo{IsoEigen, IsoBliss} {
		cfg := Config{Threads: 2, Iso: algo}
		want, err := g.FSM(bgCtx, 4, 1, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var got []PatternCount
		for _, pc := range aggregateMiner(t, g, EdgeInduced, 2, cfg) {
			if pc.Pattern.K <= 4 { // FSM(4) bounds the vertex count, the Miner does not
				got = append(got, pc)
			}
		}
		if len(want) < 10 {
			t.Fatalf("iso=%d: weak input, %d patterns", algo, len(want))
		}
		for i := range want {
			want[i].Support = 0 // the default aggregator counts, it has no support
		}
		samePublicCounts(t, fmt.Sprintf("iso=%d edge-induced aggregate vs FSM", algo), got, want)
	}
}

// TestPublicRepresentativeDeterministic pins that Motifs, FSM and
// AggregatePatterns return the very same Patterns — not just isomorphic ones
// — whatever the thread count.
func TestPublicRepresentativeDeterministic(t *testing.T) {
	g, err := Synthetic(120, 480, 3, 11)
	if err != nil {
		t.Fatal(err)
	}
	base := Config{Threads: 1}
	motifs, err := g.Motifs(bgCtx, 4, base)
	if err != nil {
		t.Fatal(err)
	}
	fsm, err := g.FSM(bgCtx, 4, 5, base)
	if err != nil {
		t.Fatal(err)
	}
	aggV := aggregateMiner(t, g, VertexInduced, 2, base)
	aggE := aggregateMiner(t, g, EdgeInduced, 2, base)
	if len(motifs) != 6 || len(fsm) < 10 || len(aggV) < 10 || len(aggE) < 10 {
		t.Fatalf("weak input: %d motifs, %d fsm, %d/%d aggregated classes", len(motifs), len(fsm), len(aggV), len(aggE))
	}
	for _, threads := range []int{1, 2, 3} {
		cfg := Config{Threads: threads}
		what := fmt.Sprintf("threads=%d", threads)
		got, err := g.Motifs(bgCtx, 4, cfg)
		if err != nil {
			t.Fatal(err)
		}
		samePublicCounts(t, what+" motifs", got, motifs)
		if got, err = g.FSM(bgCtx, 4, 5, cfg); err != nil {
			t.Fatal(err)
		}
		samePublicCounts(t, what+" fsm", got, fsm)
		samePublicCounts(t, what+" vertex-induced aggregate", aggregateMiner(t, g, VertexInduced, 2, cfg), aggV)
		samePublicCounts(t, what+" edge-induced aggregate", aggregateMiner(t, g, EdgeInduced, 2, cfg), aggE)
	}
}
