package explore

// Sink conformance tests: the terminal sinks (CountSink, VisitSink) must
// see exactly the embeddings the materializing StoreSink would store, on
// every storage configuration (all-memory, genuinely hybrid, all-disk), and
// a consumed expansion must leave the CSE untouched — no new level, no new
// bytes, no write I/O. The keep sink's in-place FilterTop rewrites are
// checked for both result equivalence and actual in-place-ness.

import (
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"kaleido/internal/memtrack"
	"kaleido/internal/run"
	"kaleido/internal/storage"
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

func TestExpandCountMatchesExpandAcrossConfigs(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	g := randomGraph(rng, 60, 240)

	// Reference: materializing run, also yields the level sizes that place
	// the hybrid budget between depth-2 and depth-3 footprints.
	ref := newVertexExplorer(t, g, 4)
	if err := ref.Expand(bgCtx, nil, nil); err != nil {
		t.Fatal(err)
	}
	after2 := ref.Bytes()
	if err := ref.Expand(bgCtx, nil, nil); err != nil {
		t.Fatal(err)
	}
	after3 := ref.Bytes()
	want := uint64(ref.Count())

	for _, sc := range sinkConfigs() {
		t.Run(sc.name, func(t *testing.T) {
			tr := memtrack.New()
			cfg := Config{Graph: g, Mode: VertexInduced, Env: &run.Env{Threads: 4, Tracker: tr}}
			if b := sc.budget(after2, after3); b > 0 {
				cfg.MemoryBudget = b
				cfg.SpillDir = t.TempDir()
			}
			e, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			if err := e.InitVertices(nil); err != nil {
				t.Fatal(err)
			}
			if err := e.Expand(bgCtx, nil, nil); err != nil {
				t.Fatal(err)
			}
			depth := e.Depth()
			bytes := e.Bytes()
			stats := e.LevelStats()
			_, preWrite := tr.IOTotals()

			got, err := e.ExpandCount(bgCtx, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("ExpandCount = %d, Expand materialized %d", got, want)
			}
			// The counted level must not exist in any form: same depth, same
			// resident bytes, same placement, zero write I/O.
			if e.Depth() != depth {
				t.Fatalf("depth changed: %d -> %d", depth, e.Depth())
			}
			if e.Bytes() != bytes {
				t.Fatalf("resident bytes changed: %d -> %d", bytes, e.Bytes())
			}
			if !reflect.DeepEqual(e.LevelStats(), stats) {
				t.Fatalf("level stats changed:\n%+v\n%+v", stats, e.LevelStats())
			}
			if _, w := tr.IOTotals(); w != preWrite {
				t.Fatalf("counted expansion wrote %d bytes", w-preWrite)
			}
		})
	}
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

// firstBlocks returns the addresses of the first unit and the first group
// boundary a level's cursors deliver. Raw parts hand out zero-copy sub-slices,
// so these are addresses inside the first part's own arrays.
func firstBlocks(t *testing.T, l *storage.HybridLevel) (*uint32, *uint64) {
	t.Helper()
	vc, bc := l.VertBlocks(0, l.Len()), l.BoundBlocks(0)
	defer vc.Close()
	defer bc.Close()
	verts, vok := vc.NextBlock()
	bounds, bok := bc.NextBlock()
	if !vok || !bok {
		t.Fatalf("empty level: %v %v", vc.Err(), bc.Err())
	}
	return &verts[0], &bounds[0]
}

// TestFilterTopRawRewritesInPlace pins FilterTop's central property for
// resident levels: a filtered raw part keeps its backing arrays — the pass
// compacts, it does not copy.
func TestFilterTopRawRewritesInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	g := randomGraph(rng, 40, 160)
	e := newVertexExplorer(t, g, 3)
	for i := 0; i < 2; i++ {
		if err := e.Expand(bgCtx, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	top := e.CSE().Top()
	beforeVerts, beforeBounds := firstBlocks(t, top)
	beforeLen := top.Len()

	if err := e.FilterTop(bgCtx, func(_ int, emb []uint32) bool { return emb[len(emb)-1]%2 == 0 }); err != nil {
		t.Fatal(err)
	}
	after := e.CSE().Top()
	if after != top {
		t.Fatal("FilterTop replaced the level instead of rewriting it")
	}
	if v, b := firstBlocks(t, after); v != beforeVerts || b != beforeBounds {
		t.Fatal("FilterTop reallocated the part's arrays")
	}
	if after.Len() >= beforeLen {
		t.Fatalf("nothing filtered: %d -> %d", beforeLen, after.Len())
	}
	// The rewritten level must agree with a filter-from-scratch enumeration.
	fresh := newVertexExplorer(t, g, 3)
	for i := 0; i < 2; i++ {
		if err := fresh.Expand(bgCtx, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	want := map[string]bool{}
	for _, emb := range collect(t, fresh) {
		if emb[len(emb)-1]%2 == 0 {
			want[setKey(emb)] = true
		}
	}
	got := collect(t, e)
	if len(got) != len(want) {
		t.Fatalf("filtered level has %d embeddings, want %d", len(got), len(want))
	}
	for _, emb := range got {
		if !want[setKey(emb)] {
			t.Fatalf("spurious embedding %v", emb)
		}
	}
}

// TestFilterTopHybridInPlace checks the keep sink on a genuinely hybrid top
// level: identical results to the all-memory pass, memory parts compacted
// where they sit (placement preserved, resident bytes shrink), disk parts
// restreamed (disk bytes shrink, still on disk).
func TestFilterTopHybridInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	g := randomGraph(rng, 60, 240)

	ref := newVertexExplorer(t, g, 4)
	if err := ref.Expand(bgCtx, nil, nil); err != nil {
		t.Fatal(err)
	}
	after2 := ref.Bytes()
	if err := ref.Expand(bgCtx, nil, nil); err != nil {
		t.Fatal(err)
	}
	after3 := ref.Bytes()
	keep := func(_ int, emb []uint32) bool { return emb[len(emb)-1]%3 != 0 }
	if err := ref.FilterTop(bgCtx, keep); err != nil {
		t.Fatal(err)
	}
	want := collect(t, ref)

	hy, err := New(Config{Graph: g, Mode: VertexInduced, Env: &run.Env{
		Threads:      4,
		MemoryBudget: after2 + (after3-after2)/2, SpillDir: t.TempDir(),
		Tracker: memtrack.New(),
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer hy.Close()
	if err := hy.InitVertices(nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := hy.Expand(bgCtx, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	topBefore := hy.LevelStats()[hy.Depth()-1]
	if topBefore.MemParts == 0 || topBefore.DiskParts == 0 {
		t.Fatalf("top level not hybrid: %+v", topBefore)
	}
	lvl := hy.CSE().Top()

	if err := hy.FilterTop(bgCtx, keep); err != nil {
		t.Fatal(err)
	}
	if hy.CSE().Top() != lvl {
		t.Fatal("hybrid FilterTop replaced the level instead of rewriting it")
	}
	topAfter := hy.LevelStats()[hy.Depth()-1]
	// The filter shrinks the level, so the budget may regain headroom and
	// promote restreamed disk parts back to memory — every disk part is
	// either still on disk or accounted for as promoted.
	promoted := hy.PromotedParts()
	if topAfter.DiskParts+promoted != topBefore.DiskParts {
		t.Fatalf("disk parts %d -> %d with %d promoted", topBefore.DiskParts, topAfter.DiskParts, promoted)
	}
	if topAfter.MemParts > topBefore.MemParts+promoted {
		t.Fatalf("mem parts grew beyond promotions: %d -> %d (%d promoted)",
			topBefore.MemParts, topAfter.MemParts, promoted)
	}
	if promoted == 0 && topAfter.ResidentBytes >= topBefore.ResidentBytes {
		t.Fatalf("resident bytes did not shrink: %d -> %d", topBefore.ResidentBytes, topAfter.ResidentBytes)
	}
	if promoted > 0 && hy.Bytes() > after2+(after3-after2)/2 {
		t.Fatalf("promotion overshot the budget: %d resident", hy.Bytes())
	}
	if topAfter.DiskBytes >= topBefore.DiskBytes {
		t.Fatalf("disk bytes did not shrink: %d -> %d", topBefore.DiskBytes, topAfter.DiskBytes)
	}
	if got := collect(t, hy); !reflect.DeepEqual(got, want) {
		t.Fatalf("hybrid in-place FilterTop differs: %d vs %d embeddings", len(got), len(want))
	}
	// The rewritten structure must survive further exploration.
	if err := hy.Expand(bgCtx, nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := ref.Expand(bgCtx, nil, nil); err != nil {
		t.Fatal(err)
	}
	if got := collect(t, hy); !reflect.DeepEqual(got, collect(t, ref)) {
		t.Fatal("expansion after hybrid in-place FilterTop differs")
	}
}

// TestHybridBuilderPooling drives several expand/pop cycles on one budgeted
// explorer so the pooled HybridLevelBuilder's Reset path is exercised, and
// checks every rebuilt level against the first.
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
	if err := e.Expand(bgCtx, nil, nil); err != nil {
		t.Fatal(err)
	}
	var want [][]uint32
	for round := 0; round < 3; round++ {
		if err := e.Expand(bgCtx, nil, nil); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		got := collect(t, e)
		if want == nil {
			want = got
		} else if !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: rebuilt level differs", round)
		}
		if err := e.PopTop(); err != nil {
			t.Fatal(err)
		}
	}
}
