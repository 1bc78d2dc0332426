package apps

import (
	"fmt"
	"math/rand"
	"testing"

	"kaleido/internal/dataset"
	"kaleido/internal/explore"
	"kaleido/internal/graph"
	"kaleido/internal/memtrack"
	"kaleido/internal/mni"
	"kaleido/internal/pattern"
	"kaleido/internal/run"
)

// TestFSMPrunesBeforeStore holds FSM's intermediate level to its pruning:
// 4-FSM stores level 2 once, and exactly the embeddings whose class is
// frequent under a reference aggregation with no memo. On a budget-1 run
// that level writes fewer bytes than the unpruned level would; an
// unbudgeted run calls no filesystem. The results equal the subset oracle
// (on a graph small enough for it) or, on citeseer, the 1-thread unbudgeted
// run, at 1, 2 and 4 threads, unbudgeted, hybrid and at budget 1.
func TestFSMPrunesBeforeStore(t *testing.T) {
	cite, err := dataset.Generate(dataset.CiteSeer)
	if err != nil {
		t.Fatal(err)
	}
	small := randomGraph(rand.New(rand.NewSource(45)), 30, 80, 3)
	cases := []struct {
		name    string
		g       *graph.Graph
		support uint64
		hybrid  int64 // a budget that spills some of level 2's parts (how many depends on the schedule)
		oracle  bool
	}{
		{"citeseer", cite, 100, 64 << 10, false},
		{"small", small, 6, 1536, true},
	}
	for _, c := range cases {
		all, kept := level2Reference(t, c.g, c.support)
		if kept == 0 || kept == all {
			t.Fatalf("%s: degenerate: %d of %d level-2 embeddings frequent", c.name, kept, all)
		}
		t.Logf("%s: %d of %d level-2 embeddings frequent", c.name, kept, all)
		var classes map[string]*fsmClass
		if c.oracle {
			classes = fsmOracle(graphLabels(c.g), graphEdges(c.g), 4)
		}
		var want []PatternCount
		for _, threads := range []int{1, 2, 4} {
			unpruned := unprunedLevel2Writes(t, c.g, c.support, threads)
			for _, budget := range []int64{0, c.hybrid, 1} {
				what := fmt.Sprintf("%s threads %d budget %d", c.name, threads, budget)
				fs := &noFS{}
				env := &run.Env{Threads: threads, MemoryBudget: budget, Tracker: memtrack.New(), Spill: &run.SpillInfo{}}
				if budget > 0 {
					env.SpillDir = t.TempDir()
				} else {
					env.FS = fs
				}
				res, _, err := FSM(bgCtx, c.g, 4, c.support, env)
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				levels := env.Spill.Levels
				if len(levels) != 2 || levels[1].Len != kept {
					t.Fatalf("%s: stored levels %+v, want level 2 of %d embeddings (%d unpruned)", what, levels, kept, all)
				}
				_, written := env.Tracker.IOTotals()
				switch budget {
				case 0:
					if n := fs.calls.Load(); n != 0 || written != 0 {
						t.Fatalf("%s: %d filesystem calls, %d bytes written", what, n, written)
					}
				case 1:
					if written == 0 || written >= unpruned {
						t.Fatalf("%s: wrote %d bytes, unpruned level 2 writes %d", what, written, unpruned)
					}
				}
				if c.oracle {
					checkFSMOracle(t, what, res, classes, 4, c.support)
				} else if want == nil {
					want = res
				} else {
					comparePatternCounts(t, what, res, want)
				}
			}
		}
	}
}

// level2Reference stores level 2 of 4-FSM(g, support) unpruned and returns
// its size and how many of its embeddings have a frequent class, aggregated
// without the aggregator: every embedding filled from scratch, hashed by a
// fresh backend with no memo and its MNI domains tracked in a plain map.
func level2Reference(t *testing.T, g *graph.Graph, support uint64) (all, frequent int) {
	t.Helper()
	e := unprunedLevel2(t, g, support, &run.Env{Threads: 1})
	defer e.Close()
	hash := newHasher(run.IsoEigen)
	classes := map[uint64]*mni.Agg{}
	var pat pattern.Pattern
	var verts []uint32
	classOf := func(emb []uint32) (*mni.Agg, error) {
		var err error
		if verts, err = fillEdges(g, emb, verts, &pat); err != nil {
			return nil, err
		}
		var perm [pattern.MaxK]uint8
		pat.SortByLabelDegreeTracked(&perm)
		h := hash(&pat)
		agg := classes[h]
		if agg == nil {
			agg = mni.NewAgg(&pat, g.N())
			classes[h] = agg
		}
		agg.Insert(verts, &perm, support)
		return agg, nil
	}
	if err := e.ForEach(bgCtx, func(_ int, emb []uint32) error {
		_, err := classOf(emb)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := e.ForEach(bgCtx, func(_ int, emb []uint32) error {
		agg, err := classOf(emb) // a second Insert changes no domain
		if agg != nil && agg.Frequent() {
			frequent++
		}
		return err
	}); err != nil {
		t.Fatal(err)
	}
	return e.Count(), frequent
}

// unprunedLevel2Writes returns the bytes an all-disk store of level 2 of
// 4-FSM(g, support), unpruned, writes at threads workers.
func unprunedLevel2Writes(t *testing.T, g *graph.Graph, support uint64, threads int) int64 {
	t.Helper()
	tr := memtrack.New()
	e := unprunedLevel2(t, g, support, &run.Env{Threads: threads, MemoryBudget: 1, SpillDir: t.TempDir(), Tracker: tr})
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	_, written := tr.IOTotals()
	return written
}

// unprunedLevel2 returns an explorer holding level 2 of 4-FSM(g, support)
// as it is before any pruning: every extension FSM's filter admits.
func unprunedLevel2(t *testing.T, g *graph.Graph, support uint64, env *run.Env) *explore.Explorer {
	t.Helper()
	freqPairs, _ := mni.EdgePairs(g, support)
	e, err := explore.New(explore.Config{Graph: g, Mode: explore.EdgeInduced, Env: env})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.InitEdges(freqPairs.Has); err != nil {
		t.Fatal(err)
	}
	if err := e.Expand(bgCtx, nil, fsmEmbeddingFilter(g, 4, freqPairs)); err != nil {
		t.Fatal(err)
	}
	return e
}

// graphLabels and graphEdges give the oracle g's labels and edge list.
func graphLabels(g *graph.Graph) []int {
	labels := make([]int, g.N())
	for v := range labels {
		labels[v] = int(g.Label(uint32(v)))
	}
	return labels
}

func graphEdges(g *graph.Graph) [][2]int {
	edges := make([][2]int, g.M())
	for i := range edges {
		ed := g.EdgeAt(uint32(i))
		edges[i] = [2]int{int(ed.U), int(ed.V)}
	}
	return edges
}
