package explore

import (
	"math/rand"
	"reflect"
	"testing"

	"kaleido/internal/run"
)

// TestCompressionPlacementConformance runs the same exploration across the
// three storage regimes — all-memory, partially spilled, heavily spilled —
// and requires identical embeddings, Extract results and ParentOf answers
// everywhere. It also checks the byte split: whatever spills is codec
// blocks, physically smaller than its logical word size.
func TestCompressionPlacementConformance(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	g := randomGraph(rng, 50, 200)

	// Unbudgeted reference: embeddings plus per-depth CSE sizes.
	ref := newVertexExplorer(t, g, 3)
	if err := ref.Expand(bgCtx, nil, nil); err != nil {
		t.Fatal(err)
	}
	bytesAfter2 := ref.Bytes()
	if err := ref.Expand(bgCtx, nil, nil); err != nil {
		t.Fatal(err)
	}
	bytesAfter3 := ref.Bytes()
	want := collect(t, ref)
	wantExtract := make([][]uint32, ref.Count())
	for i := range wantExtract {
		emb := make([]uint32, ref.Depth())
		if err := ref.CSE().Extract(i, emb); err != nil {
			t.Fatal(err)
		}
		wantExtract[i] = emb
	}

	budgets := []int64{
		0, // all-memory
		bytesAfter2 + (bytesAfter3-bytesAfter2)/2, // partial spill
		bytesAfter2 / 2, // heavy spill
	}
	for bi, budget := range budgets {
		cfg := Config{Graph: g, Mode: VertexInduced, Env: &run.Env{Threads: 3}}
		if budget > 0 {
			cfg.MemoryBudget, cfg.SpillDir = budget, t.TempDir()
		}
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		if err := e.InitVertices(nil); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			if err := e.Expand(bgCtx, nil, nil); err != nil {
				t.Fatalf("budget[%d]: %v", bi, err)
			}
		}
		if got := collect(t, e); !reflect.DeepEqual(got, want) {
			t.Fatalf("budget[%d]: embeddings differ (%d vs %d)", bi, len(got), len(want))
		}
		top := e.CSE().Top()
		for i := 0; i < e.Count(); i++ {
			emb := make([]uint32, e.Depth())
			if err := e.CSE().Extract(i, emb); err != nil {
				t.Fatalf("budget[%d]: Extract(%d): %v", bi, i, err)
			}
			if !reflect.DeepEqual(emb, wantExtract[i]) {
				t.Fatalf("budget[%d]: Extract(%d) = %v, want %v", bi, i, emb, wantExtract[i])
			}
			rp, rerr := ref.CSE().Top().ParentOf(i)
			gp, gerr := top.ParentOf(i)
			if rerr != nil || gerr != nil || rp != gp {
				t.Fatalf("budget[%d]: ParentOf(%d) = %d (%v), want %d (%v)", bi, i, gp, gerr, rp, rerr)
			}
		}
		sl, sp := e.SpilledBytes(), e.SpilledBytesPhysical()
		if budget == 0 {
			if sl != 0 || sp != 0 {
				t.Fatalf("all-mem run reports spilled bytes %d/%d", sl, sp)
			}
			continue
		}
		if e.SpilledParts() == 0 {
			t.Fatalf("budget[%d]: budgeted run spilled nothing", bi)
		}
		if sl == 0 || sp == 0 {
			t.Fatalf("budget[%d]: spilled bytes %d logical / %d physical", bi, sl, sp)
		}
		if sp >= sl {
			t.Fatalf("budget[%d]: physical %d not below logical %d", bi, sp, sl)
		}
	}
}
