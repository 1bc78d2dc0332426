package apps

// Differential fused-vs-materialized tests: every application that consumes
// its terminal expansion at the frontier (clique → CountSink, motif and
// FSM's final level → VisitSink) must produce byte-identical counts and
// supports to a run that materializes the final level, on all three storage
// regimes (all-memory, budgeted hybrid, all-disk) — and the fused terminal
// level must write zero bytes to the spill directory.

import (
	"math/rand"
	"sync"
	"testing"

	"kaleido/internal/explore"
	"kaleido/internal/graph"
	"kaleido/internal/iso"
	"kaleido/internal/memtrack"
	"kaleido/internal/mni"
	"kaleido/internal/pattern"
	"kaleido/internal/run"
)

// appConfigs enumerates the storage regimes: all-mem, a mid-size budget
// (hybrid placement decided by the governor), and a 1-byte budget
// (all-disk).
func appConfigs(t *testing.T) []*run.Env {
	return []*run.Env{
		{Threads: 3},
		{Threads: 3, MemoryBudget: 64 << 10, SpillDir: t.TempDir()},
		{Threads: 3, MemoryBudget: 1, SpillDir: t.TempDir()},
	}
}

// naiveCliqueFilter is the per-candidate HasEdge clique filter: with it the
// union path is the reference that Clique exploration must match.
func naiveCliqueFilter(g *graph.Graph) explore.VertexFilter {
	return func(_ int, emb []uint32, cand, _ uint32) bool {
		for _, v := range emb {
			if !g.HasEdge(v, cand) {
				return false
			}
		}
		return true
	}
}

// materializedCliqueCount is the pre-sink clique path: k−1 storing
// expansions with the naive filter, then Count of the stored top.
func materializedCliqueCount(t *testing.T, g *graph.Graph, k int) uint64 {
	t.Helper()
	e, err := explore.New(explore.Config{Graph: g, Mode: explore.VertexInduced, Env: &run.Env{Threads: 3}})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.InitVertices(nil); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < k; i++ {
		if err := e.Expand(bgCtx, naiveCliqueFilter(g), nil); err != nil {
			t.Fatal(err)
		}
	}
	return uint64(e.Count())
}

func TestCliqueFusedMatchesMaterialized(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 4; trial++ {
		g := randomGraph(rng, 30+rng.Intn(30), 120+rng.Intn(120), 1)
		for k := 3; k <= 5; k++ {
			want := materializedCliqueCount(t, g, k)
			for i, opt := range appConfigs(t) {
				got, err := CliqueCount(bgCtx, g, k, opt)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("trial %d k=%d config %d: fused count %d, materialized %d", trial, k, i, got, want)
				}
			}
		}
	}
}

// materializedMotifCount materializes the final level and aggregates it
// with ForEach — the pre-sink motif path.
func materializedMotifCount(t *testing.T, g *graph.Graph, k int) map[string]uint64 {
	t.Helper()
	e, err := explore.New(explore.Config{Graph: g, Mode: explore.VertexInduced, Env: &run.Env{Threads: 3}})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.InitVertices(nil); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < k; i++ {
		if err := e.Expand(bgCtx, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	out := map[string]uint64{}
	var mu sync.Mutex
	err = e.ForEach(bgCtx, func(_ int, emb []uint32) error {
		var p pattern.Pattern
		if err := fillVertices(g, emb, true, &p); err != nil {
			return err
		}
		key := iso.CanonicalBrute(&p)
		mu.Lock()
		out[key]++
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestMotifFusedMatchesMaterialized(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 3; trial++ {
		g := randomGraph(rng, 16+rng.Intn(12), 50+rng.Intn(40), 1)
		for k := 3; k <= 4; k++ {
			want := materializedMotifCount(t, g, k)
			for i, opt := range appConfigs(t) {
				got, err := MotifCount(bgCtx, g, k, opt)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("trial %d k=%d config %d: %d classes, want %d", trial, k, i, len(got), len(want))
				}
				for _, pc := range got {
					if want[iso.CanonicalBrute(pc.Pattern)] != pc.Count {
						t.Fatalf("trial %d k=%d config %d: motif %v count %d, want %d",
							trial, k, i, pc.Pattern, pc.Count, want[iso.CanonicalBrute(pc.Pattern)])
					}
				}
			}
		}
	}
}

// materializedFSMFinal replays FSM but materializes the final level
// (Expand + ForEach aggregation) instead of fusing it — the pre-sink path,
// byte-for-byte the old implementation.
func materializedFSMFinal(t *testing.T, g *graph.Graph, k int, support uint64, opt *run.Env) []PatternCount {
	t.Helper()
	freqPairs, pairs := mni.EdgePairs(g, support)
	if k == 2 {
		return edgePairCounts(pairs)
	}
	e, err := explore.New(explore.Config{Graph: g, Mode: explore.EdgeInduced, Env: opt})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	err = e.InitEdges(func(eid uint32) bool { return freqPairs.Has(g, eid) })
	if err != nil {
		t.Fatal(err)
	}
	filter := func(_ int, emb []uint32, verts []uint32, cand uint32) bool {
		if !freqPairs.Has(g, cand) {
			return false
		}
		ed := g.EdgeAt(cand)
		nv := 0
		if !sortedContains(verts, ed.U) {
			nv++
		}
		if !sortedContains(verts, ed.V) {
			nv++
		}
		return len(verts)+nv <= k
	}
	a := newAggregator(g, support, opt)
	var result []PatternCount
	for level := 2; level <= k-1; level++ {
		if err := e.Expand(bgCtx, nil, filter); err != nil {
			t.Fatal(err)
		}
		if err := e.ForEach(bgCtx, a.addEdges); err != nil {
			t.Fatal(err)
		}
		merged := a.merge()
		if level < k-1 {
			// The pruning pass hashes every embedding with a fresh backend,
			// no memo: the reference the memoised fsmFilterTop must match.
			nw := opt.Workers()
			hashers := make([]hasher, nw)
			pats := make([]pattern.Pattern, nw)
			bufs := make([][]uint32, nw)
			for i := range hashers {
				hashers[i] = newHasher(opt.Iso)
			}
			err = e.FilterTop(bgCtx, func(w int, emb []uint32) bool {
				verts, err := fillEdges(g, emb, bufs[w], &pats[w])
				bufs[w] = verts[:0]
				if err != nil {
					return false
				}
				pats[w].SortByLabelDegree()
				agg, ok := merged[hashers[w](&pats[w])]
				return ok && agg.Frequent()
			})
			if err != nil {
				t.Fatal(err)
			}
			continue
		}
		result = collectFrequent(merged, support)
	}
	return result
}

func TestFSMFusedMatchesMaterialized(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 3; trial++ {
		g := randomGraph(rng, 20+rng.Intn(15), 60+rng.Intn(40), 3)
		for _, k := range []int{3, 4} {
			for _, support := range []uint64{1, 3} {
				// Single-threaded runs enumerate embeddings in one
				// deterministic order, so counts AND threshold-crossing
				// supports must be byte-identical between the fused and the
				// materialized final level.
				exact := materializedFSMFinal(t, g, k, support, &run.Env{Threads: 1})
				got1, _, err := FSM(bgCtx, g, k, support, &run.Env{Threads: 1})
				if err != nil {
					t.Fatal(err)
				}
				if len(got1) != len(exact) {
					t.Fatalf("trial %d k=%d s=%d: %d patterns, want %d", trial, k, support, len(got1), len(exact))
				}
				for j := range got1 {
					if got1[j].Count != exact[j].Count || got1[j].Support != exact[j].Support ||
						!iso.Isomorphic(got1[j].Pattern, exact[j].Pattern) {
						t.Fatalf("trial %d k=%d s=%d: pattern %d differs: %+v vs %+v",
							trial, k, support, j, got1[j], exact[j])
					}
				}
				// Multi-threaded, across storage regimes: counts per pattern
				// class are exact (compare by canonical form — result order
				// among equal counts and the threshold-crossing support
				// value both depend on enumeration order, §6.2).
				wantByClass := map[string]uint64{}
				for _, pc := range exact {
					wantByClass[iso.CanonicalBrute(pc.Pattern)] = pc.Count
				}
				for i, opt := range appConfigs(t) {
					got, _, err := FSM(bgCtx, g, k, support, opt)
					if err != nil {
						t.Fatal(err)
					}
					if len(got) != len(exact) {
						t.Fatalf("trial %d k=%d s=%d config %d: %d patterns, want %d",
							trial, k, support, i, len(got), len(exact))
					}
					for _, pc := range got {
						if pc.Support < support || wantByClass[iso.CanonicalBrute(pc.Pattern)] != pc.Count {
							t.Fatalf("trial %d k=%d s=%d config %d: pattern %v count %d support %d, want count %d",
								trial, k, support, i, pc.Pattern, pc.Count, pc.Support,
								wantByClass[iso.CanonicalBrute(pc.Pattern)])
						}
					}
				}
			}
		}
	}
}

func TestTriangleCountAcrossConfigs(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	g := randomGraph(rng, 40, 200, 1)
	want := bruteTriangles(g)
	for i, opt := range appConfigs(t) {
		got, err := TriangleCount(bgCtx, g, opt)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("config %d: triangles = %d, want %d", i, got, want)
		}
	}
}

// TestFusedTerminalWritesZeroBytes is the storage-side acceptance check:
// under an all-disk budget, a clique or motif run writes exactly the bytes
// of its k−2 stored levels — the terminal level contributes nothing.
func TestFusedTerminalWritesZeroBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	g := randomGraph(rng, 40, 160, 1)

	// Expected: one stored level (depth 2) under the clique filter.
	tr := memtrack.New()
	e, err := explore.New(explore.Config{Graph: g, Mode: explore.VertexInduced, Env: &run.Env{
		Threads:      3,
		MemoryBudget: 1, SpillDir: t.TempDir(), Tracker: tr,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.InitVertices(nil); err != nil {
		t.Fatal(err)
	}
	if err := e.Expand(bgCtx, naiveCliqueFilter(g), nil); err != nil {
		t.Fatal(err)
	}
	_, wantCliqueWrites := tr.IOTotals()
	e.Close()
	if wantCliqueWrites == 0 {
		t.Fatal("degenerate: level 2 wrote nothing")
	}

	trClique := memtrack.New()
	if _, err := CliqueCount(bgCtx, g, 3, &run.Env{
		Threads: 3, MemoryBudget: 1, SpillDir: t.TempDir(), Tracker: trClique,
	}); err != nil {
		t.Fatal(err)
	}
	if _, w := trClique.IOTotals(); w != wantCliqueWrites {
		t.Fatalf("3-clique run wrote %d bytes, want %d (terminal level must write zero)", w, wantCliqueWrites)
	}

	// Expected: one stored unfiltered level (depth 2) for 3-motifs.
	tr2 := memtrack.New()
	e2, err := explore.New(explore.Config{Graph: g, Mode: explore.VertexInduced, Env: &run.Env{
		Threads:      3,
		MemoryBudget: 1, SpillDir: t.TempDir(), Tracker: tr2,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := e2.InitVertices(nil); err != nil {
		t.Fatal(err)
	}
	if err := e2.Expand(bgCtx, nil, nil); err != nil {
		t.Fatal(err)
	}
	_, wantMotifWrites := tr2.IOTotals()
	e2.Close()

	trMotif := memtrack.New()
	if _, err := MotifCount(bgCtx, g, 3, &run.Env{
		Threads: 3, MemoryBudget: 1, SpillDir: t.TempDir(), Tracker: trMotif,
	}); err != nil {
		t.Fatal(err)
	}
	if _, w := trMotif.IOTotals(); w != wantMotifWrites {
		t.Fatalf("3-motif run wrote %d bytes, want %d (terminal level must write zero)", w, wantMotifWrites)
	}
}
