package explore

// Sink conformance tests: the terminal sinks (CountSink, VisitSink) must
// see exactly the embeddings the materializing StoreSink would store, on
// every storage configuration (all-memory, genuinely hybrid, all-disk), and
// a consumed expansion must leave the CSE untouched — no new level, no new
// bytes, no write I/O.

import (
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

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
