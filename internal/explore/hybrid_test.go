package explore

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"kaleido/internal/memtrack"
	"kaleido/internal/run"
)

// TestPartialSpillBetweenLevelSizes is the acceptance property of the
// per-part hybrid storage: with a memory budget strictly between the CSE
// sizes of two adjacent depths, the last level must come out with both mem-
// and disk-resident parts — not all-or-nothing — and the embeddings must be
// identical to an unbudgeted run.
func TestPartialSpillBetweenLevelSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	g := randomGraph(rng, 60, 240)

	// Unbudgeted reference: learn the CSE size at each depth.
	ref := newVertexExplorer(t, g, 4)
	if err := ref.Expand(bgCtx, nil, nil); err != nil {
		t.Fatal(err)
	}
	bytesAfter2 := ref.Bytes()
	if err := ref.Expand(bgCtx, nil, nil); err != nil {
		t.Fatal(err)
	}
	bytesAfter3 := ref.Bytes()
	if bytesAfter3 <= bytesAfter2 {
		t.Fatalf("degenerate graph: CSE bytes %d -> %d", bytesAfter2, bytesAfter3)
	}
	want := collect(t, ref)

	// Budget halfway between the two depths' resident sizes: level 3 can
	// only partially stay in memory.
	budget := bytesAfter2 + (bytesAfter3-bytesAfter2)/2
	hy, err := New(Config{Graph: g, Mode: VertexInduced, Env: &run.Env{
		Threads:      4,
		MemoryBudget: budget, SpillDir: t.TempDir(),
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
	stats := hy.LevelStats()
	top := stats[len(stats)-1]
	if top.MemParts == 0 || top.DiskParts == 0 {
		t.Fatalf("top level not hybrid: %+v (budget %d between %d and %d)", top, budget, bytesAfter2, bytesAfter3)
	}
	if top.DiskBytes == 0 {
		t.Fatalf("hybrid level reports no disk bytes: %+v", top)
	}
	if hy.SpilledParts() < top.DiskParts {
		t.Fatalf("SpilledParts %d < top level's disk parts %d", hy.SpilledParts(), top.DiskParts)
	}
	if hy.SpilledLevels() == 0 {
		t.Fatal("partial spill not counted in SpilledLevels")
	}
	if hy.Bytes() > budget {
		t.Fatalf("resident CSE %d exceeds budget %d after governed build", hy.Bytes(), budget)
	}
	got := collect(t, hy)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("partial-spill run differs: %d vs %d embeddings", len(got), len(want))
	}
}

// TestTrackerPressureForcesSpill: when tracked memory outside the CSE
// already exceeds the budget, the next build must spill even though the CSE
// itself is tiny: the governor reads the tracker, not the CSE.
func TestTrackerPressureForcesSpill(t *testing.T) {
	rng := rand.New(rand.NewSource(69))
	g := randomGraph(rng, 30, 90)
	tr := memtrack.New()
	e, err := New(Config{Graph: g, Mode: VertexInduced, Env: &run.Env{
		Threads:      2,
		MemoryBudget: 1 << 30, SpillDir: t.TempDir(), Tracker: tr,
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.InitVertices(nil); err != nil {
		t.Fatal(err)
	}
	// Simulate a huge external structure (e.g. FSM pattern maps).
	tr.Alloc(2 << 30)
	defer tr.Free(2 << 30)
	if err := e.Expand(bgCtx, nil, nil); err != nil {
		t.Fatal(err)
	}
	if e.SpilledParts() == 0 {
		t.Fatal("external memory pressure did not force spilling")
	}
	stats := e.LevelStats()
	if stats[len(stats)-1].DiskParts == 0 {
		t.Fatal("top level has no disk parts despite pressure")
	}
}

// TestBudgetFollowsLiveSiblingBytes: under a shared budget the governor reads
// the scope's live bytes at every charge, not a picture of them taken when
// the build starts. The explorer runs on one child tracker of an arbiter and
// a sibling child holds or takes bytes while the level is being built; a
// filter that admits everything moves them on its first call, before any
// child is stored. The level plus the base is about half the watermark W.
//
//   - the sibling holds 0.8·W at the start and frees it: the build has the
//     whole watermark to itself, so nothing spills (a budget fixed at the
//     start would have left the build 0.2·W and spilled most of the level);
//   - the sibling holds nothing at the start and takes W: the build crosses
//     at its first charge and must spill.
//
// Either way the level equals the unbudgeted one.
func TestBudgetFollowsLiveSiblingBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	g := randomGraph(rng, 200, 3000)
	ref := newVertexExplorer(t, g, 2)
	if err := ref.Expand(bgCtx, nil, nil); err != nil {
		t.Fatal(err)
	}
	want := collect(t, ref)
	budget := int64(float64(2*ref.Bytes()) / spillWatermark)
	for _, tc := range []struct {
		name      string
		wantSpill bool
	}{
		{"sibling frees", false},
		{"sibling allocates", true},
	} {
		for _, threads := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/%dthreads", tc.name, threads), func(t *testing.T) {
				a := memtrack.NewArbiter(budget)
				sibling := a.NewTracker()
				e, err := New(Config{Graph: g, Mode: VertexInduced, Env: &run.Env{
					Threads: threads, MemoryBudget: budget, SpillDir: t.TempDir(), Tracker: a.NewTracker(),
				}})
				if err != nil {
					t.Fatal(err)
				}
				defer e.Close()
				if err := e.InitVertices(nil); err != nil {
					t.Fatal(err)
				}
				w := e.watermarkBytes()
				if base := e.Bytes(); 2*ref.Bytes() > w+w/100 || base > w/10 {
					t.Fatalf("watermark %d for a level plus base of %d, base %d", w, ref.Bytes(), base)
				}
				var once sync.Once
				var move func()
				if tc.wantSpill {
					move = func() { sibling.Alloc(w) }
					defer sibling.Free(w)
				} else {
					sibling.Alloc(w * 8 / 10)
					move = func() { sibling.Free(w * 8 / 10) }
				}
				all := func(int, []uint32, uint32, uint32) bool {
					once.Do(move)
					return true
				}
				if err := e.Expand(bgCtx, all, nil); err != nil {
					t.Fatal(err)
				}
				top := e.LevelStats()[1]
				if spilled := top.DiskParts > 0; spilled != tc.wantSpill {
					t.Fatalf("%d mem / %d disk parts, want spilled = %v", top.MemParts, top.DiskParts, tc.wantSpill)
				}
				if got := collect(t, e); !reflect.DeepEqual(got, want) {
					t.Fatalf("the level differs from the unbudgeted one: %d vs %d embeddings", len(got), len(want))
				}
			})
		}
	}
}
