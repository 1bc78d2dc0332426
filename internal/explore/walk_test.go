package explore

// Walk conformance tests: every walk that consumes an expansion at the
// frontier — ExpandCount, ExpandCountVisit, ExpandVisitGroups and
// ExpandCountTwo — must see exactly the embeddings a materializing Expand
// would store, on every storage configuration (all-memory, genuinely
// hybrid, all-disk), and must leave the CSE untouched — no new level, no new
// bytes, no write I/O.

import (
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"kaleido/internal/graph"
	"kaleido/internal/memtrack"
	"kaleido/internal/run"
)

// sinkConfig enumerates the storage regimes of the conformance tests.
type sinkConfig struct {
	name   string
	budget func(after2, after3 int64) int64 // 0 = all-mem
}

func sinkConfigs() []sinkConfig {
	return []sinkConfig{
		{name: "mem", budget: func(_, _ int64) int64 { return 0 }},
		{name: "hybrid", budget: func(a2, a3 int64) int64 { return a2 + (a3-a2)/2 }},
		{name: "disk", budget: func(_, _ int64) int64 { return 1 }},
	}
}

// TestExpandCountMatchesExpandAcrossConfigs runs every frontier walk on a
// depth-2 explorer of each mode, in each storage regime: ExpandCount and
// ExpandCountVisit (vertex-, edge-induced and Clique) must count what Expand
// stores at depth 3, and the visitor see as many children; the sum of
// ExpandVisitGroups' rows (vertex-induced) and ExpandCountTwo (Clique) must
// be ExpandCount one stored level deeper. None of them may change the
// explorer's depth, resident bytes or level placement, or write a byte.
func TestExpandCountMatchesExpandAcrossConfigs(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	g := randomGraph(rng, 60, 240)
	// Clique mode runs on a graph of the same size with planted cliques:
	// the random one has no 4-clique.
	modes := []Mode{VertexInduced, EdgeInduced, Clique}
	graphs := []*graph.Graph{g, g, plantedGraph(t, rng, plantedShape{n: 60, edges: 240, hubDeg: 10, clique: 6}, -1, true)}

	// Reference: materializing runs, which also yield the level sizes that
	// place each mode's hybrid budget between its depth-2 and depth-3
	// footprints, and the level counts at depths 3 and 4.
	var after2, after3 [3]int64
	var want3, want4 [3]uint64
	for i, mode := range modes {
		ref := newModeExplorer(t, graphs[i], mode, &run.Env{Threads: 4})
		for d := 2; d <= 4; d++ {
			if err := ref.Expand(bgCtx, nil, nil); err != nil {
				t.Fatal(err)
			}
			switch d {
			case 2:
				after2[i] = ref.Bytes()
			case 3:
				after3[i], want3[i] = ref.Bytes(), uint64(ref.Count())
			case 4:
				want4[i] = uint64(ref.Count())
			}
		}
		if want4[i] == 0 {
			t.Fatalf("mode %d: no embedding at depth 4: the test graph is too sparse", mode)
		}
	}

	for _, sc := range sinkConfigs() {
		t.Run(sc.name, func(t *testing.T) {
			for i, mode := range modes {
				tr := memtrack.New()
				env := &run.Env{Threads: 4, Tracker: tr}
				if b := sc.budget(after2[i], after3[i]); b > 0 {
					env.MemoryBudget, env.SpillDir = b, t.TempDir()
				}
				e := newModeExplorer(t, graphs[i], mode, env)
				if err := e.Expand(bgCtx, nil, nil); err != nil {
					t.Fatal(err)
				}
				depth, bytes, stats := e.Depth(), e.Bytes(), e.LevelStats()
				_, preWrite := tr.IOTotals()
				// The consumed level must not exist in any form: same depth,
				// same resident bytes, same placement, zero write I/O.
				unchanged := func(op string) {
					t.Helper()
					if e.Depth() != depth {
						t.Fatalf("mode %d %s: depth changed: %d -> %d", mode, op, depth, e.Depth())
					}
					if e.Bytes() != bytes {
						t.Fatalf("mode %d %s: resident bytes changed: %d -> %d", mode, op, bytes, e.Bytes())
					}
					if !reflect.DeepEqual(e.LevelStats(), stats) {
						t.Fatalf("mode %d %s: level stats changed:\n%+v\n%+v", mode, op, stats, e.LevelStats())
					}
					if _, w := tr.IOTotals(); w != preWrite {
						t.Fatalf("mode %d %s: wrote %d bytes", mode, op, w-preWrite)
					}
				}

				got, err := e.ExpandCount(bgCtx, nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				if got != want3[i] {
					t.Fatalf("mode %d: ExpandCount = %d, Expand materialized %d", mode, got, want3[i])
				}
				unchanged("ExpandCount")

				var visited atomic.Uint64
				got, err = e.ExpandCountVisit(bgCtx, nil, nil, func(_ int, _, children []uint32) error {
					visited.Add(uint64(len(children)))
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				if got != want3[i] || visited.Load() != want3[i] {
					t.Fatalf("mode %d: ExpandCountVisit = %d, visited %d children, Expand materialized %d", mode, got, visited.Load(), want3[i])
				}
				unchanged("ExpandCountVisit")

				var two uint64
				switch mode {
				case VertexInduced:
					var rows atomic.Uint64
					if err := e.ExpandVisitGroups(bgCtx, func(_ int, _, _, r []uint32) error {
						var n uint64
						for _, c := range r {
							n += uint64(c)
						}
						rows.Add(n)
						return nil
					}); err != nil {
						t.Fatal(err)
					}
					two = rows.Load()
					unchanged("ExpandVisitGroups")
				case Clique:
					if two, err = e.ExpandCountTwo(bgCtx); err != nil {
						t.Fatal(err)
					}
					unchanged("ExpandCountTwo")
				default:
					continue
				}
				// One stored level deeper, ExpandCount counts what the
				// two-level walk did.
				if err := e.Expand(bgCtx, nil, nil); err != nil {
					t.Fatal(err)
				}
				next, err := e.ExpandCount(bgCtx, nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				if two != next || next != want4[i] {
					t.Fatalf("mode %d: two levels past depth 2: %d, ExpandCount at depth 3: %d, Expand materialized %d", mode, two, next, want4[i])
				}
			}
		})
	}
}

// newModeExplorer returns an explorer of mode over g under env, holding
// level 1.
func newModeExplorer(t *testing.T, g *graph.Graph, mode Mode, env *run.Env) *Explorer {
	t.Helper()
	e, err := New(Config{Graph: g, Mode: mode, Env: env})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	if mode == EdgeInduced {
		err = e.InitEdges(nil)
	} else {
		err = e.InitVertices(nil)
	}
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestExpandVisitMatchesExpandEdgeMode(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for trial := 0; trial < 6; trial++ {
		g := randomGraph(rng, 12+rng.Intn(10), 20+rng.Intn(30))
		if g.M() == 0 {
			continue
		}
		mk := func() *Explorer {
			e, err := New(Config{Graph: g, Mode: EdgeInduced, Env: &run.Env{Threads: 3}})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { e.Close() })
			if err := e.InitEdges(nil); err != nil {
				t.Fatal(err)
			}
			if err := e.Expand(bgCtx, nil, nil); err != nil {
				t.Fatal(err)
			}
			return e
		}
		a := mk()
		if err := a.Expand(bgCtx, nil, nil); err != nil {
			t.Fatal(err)
		}
		want := collect(t, a)

		b := mk()
		var mu sync.Mutex
		var got [][]uint32
		err := b.ExpandVisit(bgCtx, nil, nil, func(_ int, emb []uint32, cand uint32) error {
			full := append(append([]uint32(nil), emb...), cand)
			mu.Lock()
			got = append(got, full)
			mu.Unlock()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		sort.Slice(got, func(i, j int) bool {
			for x := range got[i] {
				if got[i][x] != got[j][x] {
					return got[i][x] < got[j][x]
				}
			}
			return false
		})
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: edge-mode ExpandVisit %d embeddings, Expand %d", trial, len(got), len(want))
		}
		if b.Depth() != 2 {
			t.Fatalf("ExpandVisit changed depth to %d", b.Depth())
		}
	}
}

// TestHybridBuilderPooling drives several builds through one budgeted
// explorer's pooled HybridLevelBuilder, so its Reset path is exercised, and
// checks every level it builds against an unbudgeted explorer's.
func TestHybridBuilderPooling(t *testing.T) {
	rng := rand.New(rand.NewSource(89))
	g := randomGraph(rng, 40, 160)
	e, err := New(Config{Graph: g, Mode: VertexInduced, Env: &run.Env{
		Threads:      3,
		MemoryBudget: 1, SpillDir: t.TempDir(),
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.InitVertices(nil); err != nil {
		t.Fatal(err)
	}
	ref := newVertexExplorer(t, g, 3)
	for e.Depth() < 4 {
		for _, x := range []*Explorer{e, ref} {
			if err := x.Expand(bgCtx, nil, nil); err != nil {
				t.Fatalf("depth %d: %v", x.Depth(), err)
			}
		}
		if !reflect.DeepEqual(collect(t, e), collect(t, ref)) {
			t.Fatalf("depth %d: pooled build differs", e.Depth())
		}
	}
	if e.SpilledLevels() != 3 {
		t.Fatalf("%d of 3 builds spilled", e.SpilledLevels())
	}
}
