package apps

// Differential fused-vs-materialized tests: every application that consumes
// its terminal expansion at the frontier (clique → ExpandCountTwo, motif →
// ExpandVisitGroups, FSM's levels → ExpandCountVisit) must produce byte-identical counts and
// supports to a run that materializes every level, on all three storage
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
	canonical := canonicalMemo()
	var mu sync.Mutex
	err = e.ForEach(bgCtx, func(_ int, emb []uint32) error {
		var p pattern.Pattern
		if err := fillVertices(g, emb, true, &p); err != nil {
			return err
		}
		mu.Lock()
		out[canonical(&p)]++
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

// materializedFSMFinal is FSM without its fused passes: every level is
// stored unpruned and aggregated by ForEach, each filling every embedding
// from scratch. An intermediate level is then pruned by storing the run
// again, on a fresh explorer, through keep filters that fill each child from
// scratch and hash it with a fresh backend, no memo — the reference FSM's
// memoised pruning must match.
func materializedFSMFinal(t *testing.T, g *graph.Graph, k int, support uint64, opt *run.Env) []PatternCount {
	t.Helper()
	freqPairs, pairs := mni.EdgePairs(g, support)
	if k == 2 {
		return edgePairCounts(pairs)
	}
	filter := func(_ int, emb []uint32, verts []uint32, cand uint32) bool {
		if !freqPairs.Has(cand) {
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
	nw := opt.Workers()
	hashers := make([]hasher, nw)
	pats := make([]pattern.Pattern, nw)
	children := make([][]uint32, nw)
	vbufs := make([][]uint32, nw)
	for i := range hashers {
		hashers[i] = newHasher(opt.Iso)
	}
	keep := func(merged map[uint64]*mni.Agg) explore.EdgeFilter {
		return func(w int, emb []uint32, verts []uint32, cand uint32) bool {
			if !filter(w, emb, verts, cand) {
				return false
			}
			children[w] = append(append(children[w][:0], emb...), cand)
			vs, err := fillEdges(g, children[w], vbufs[w], &pats[w])
			vbufs[w] = vs[:0]
			if err != nil {
				t.Error(err)
				return false
			}
			pats[w].SortByLabelDegree()
			agg, ok := merged[hashers[w](&pats[w])]
			return ok && agg.Frequent()
		}
	}
	a := newAggregator(g, support, opt)
	var keeps []explore.EdgeFilter // the pruned levels 2..level−1
	for level := 2; ; level++ {
		e, err := explore.New(explore.Config{Graph: g, Mode: explore.EdgeInduced, Env: opt})
		if err != nil {
			t.Fatal(err)
		}
		if err := e.InitEdges(freqPairs.Has); err != nil {
			t.Fatal(err)
		}
		for _, f := range append(keeps, filter) {
			if err := e.Expand(bgCtx, nil, f); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.ForEach(bgCtx, a.addEdges); err != nil {
			t.Fatal(err)
		}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		merged := a.merge()
		if level == k-1 {
			return collectFrequent(merged, support)
		}
		keeps = append(keeps, keep(merged))
	}
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
// of its k−2 stored levels — the levels counted at the frontier contribute
// nothing. Level 1 is the base unit list, one raw part that is never
// written, so a 3-clique or 3-motif run writes nothing and a 4-clique or
// 4-motif run writes exactly one Expand to depth 2 in its mode.
func TestFusedTerminalWritesZeroBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	g := randomGraph(rng, 40, 160, 1)
	apps := []struct {
		name string
		mode explore.Mode
		run  func(k int, env *run.Env) error
	}{
		{"clique", explore.Clique, func(k int, env *run.Env) error {
			_, err := CliqueCount(bgCtx, g, k, env)
			return err
		}},
		{"motif", explore.VertexInduced, func(k int, env *run.Env) error {
			_, err := MotifCount(bgCtx, g, k, env)
			return err
		}},
	}
	for _, app := range apps {
		for _, k := range []int{3, 4} {
			// Expected: the writes of the levels 1..k−2 the run stores.
			tr := memtrack.New()
			e, err := explore.New(explore.Config{Graph: g, Mode: app.mode, Env: &run.Env{
				Threads:      3,
				MemoryBudget: 1, SpillDir: t.TempDir(), Tracker: tr,
			}})
			if err != nil {
				t.Fatal(err)
			}
			if err := e.InitVertices(nil); err != nil {
				t.Fatal(err)
			}
			for e.Depth() < k-2 {
				if err := e.Expand(bgCtx, nil, nil); err != nil {
					t.Fatal(err)
				}
			}
			_, want := tr.IOTotals()
			e.Close()
			if k == 4 && want == 0 {
				t.Fatalf("degenerate: %s level 2 wrote nothing", app.name)
			}

			trApp := memtrack.New()
			if err := app.run(k, &run.Env{
				Threads: 3, MemoryBudget: 1, SpillDir: t.TempDir(), Tracker: trApp,
			}); err != nil {
				t.Fatal(err)
			}
			if _, w := trApp.IOTotals(); w != want {
				t.Fatalf("%d-%s run wrote %d bytes, want %d (levels k−1 and k must write zero)", k, app.name, w, want)
			}
		}
	}
}
