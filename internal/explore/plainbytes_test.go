package explore

import (
	"fmt"
	"testing"

	"kaleido/internal/gen"
	"kaleido/internal/run"
)

// TestPlainLevelBytes pins the resident bytes of every level that stays
// plain — a filtered vertex-induced expansion, Clique and edge-induced ones,
// and an unfiltered level over a filtered one — in memory and all on disk,
// to what they were before delta levels existed: the format change leaves
// them byte for byte. Each row is the CSE's levels, base first.
func TestPlainLevelBytes(t *testing.T) {
	g, err := gen.PowerLaw(gen.Config{N: 600, M: 4000, Alpha: 2.2, NumLabels: 1, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	odd := func(_ int, _ []uint32, c, _ uint32) bool { return c%2 == 1 }
	for _, tc := range []struct {
		name  string
		mode  Mode
		vf    func(d int) VertexFilter // vertex-induced: the filter level d is built under
		depth int
		mem   string
		disk  string
	}{
		{"filtered", VertexInduced, func(int) VertexFilter { return allOnesFilter }, 4,
			"[2400 20800 64236 112740]", "[2400 48 56 64]"},
		{"clique", Clique, nil, 4,
			"[2400 20800 64236 112740]", "[2400 48 56 64]"},
		// The edge-induced level 3 of this graph takes 76 MB: the edge row
		// stops at level 2.
		{"edge", EdgeInduced, nil, 2,
			"[16000 893456]", "[16000 456]"},
		{"overfiltered", VertexInduced, func(d int) VertexFilter {
			if d == 2 {
				return odd
			}
			return nil
		}, 3, "[2400 11564 243580]", "[2400 48 152]"},
	} {
		for _, budget := range []int64{0, 1} {
			t.Run(fmt.Sprintf("%s/budget%d", tc.name, budget), func(t *testing.T) {
				env := &run.Env{Threads: 2}
				if budget > 0 {
					env.MemoryBudget, env.SpillDir = budget, t.TempDir()
				}
				e, err := New(Config{Graph: g, Mode: tc.mode, Env: env})
				if err != nil {
					t.Fatal(err)
				}
				defer e.Close()
				if tc.mode == EdgeInduced {
					err = e.InitEdges(nil)
				} else {
					err = e.InitVertices(nil)
				}
				if err != nil {
					t.Fatal(err)
				}
				for d := 2; d <= tc.depth; d++ {
					var vf VertexFilter
					if tc.vf != nil {
						vf = tc.vf(d)
					}
					if err := e.Expand(bgCtx, vf, nil); err != nil {
						t.Fatal(err)
					}
				}
				var got []int64
				for _, l := range e.LevelStats() {
					got = append(got, l.ResidentBytes)
				}
				want := tc.mem
				if budget > 0 {
					want = tc.disk
				}
				if fmt.Sprint(got) != want {
					t.Errorf("level bytes %v, want %s", got, want)
				}
			})
		}
	}
}
