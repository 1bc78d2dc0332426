package kaleido

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// spillFiles returns every regular file under dir.
func spillFiles(t *testing.T, dir string) []string {
	t.Helper()
	var out []string
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if !info.IsDir() {
			out = append(out, path)
		}
		return nil
	})
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	return out
}

// TestEngineSharedBudget runs two budget-sharing mining runs concurrently
// and checks the acceptance property of the shared arbiter: their combined
// resident bytes never exceed the single budget, while a correct result
// still comes out of both. Run under -race in CI, this is also the data-race
// test of the cross-run accounting.
func TestEngineSharedBudget(t *testing.T) {
	g, err := Synthetic(600, 2400, 4, 11)
	if err != nil {
		t.Fatal(err)
	}
	// Reference: solo in-memory run sizes the budget so that one run almost
	// fills it — two concurrent runs must arbitrate. Motifs(5) stores levels
	// 1..3, whose top level is what each run spills under contention.
	var solo Stats
	want, err := g.Motifs(bgCtx, 5, Config{Threads: 2, Stats: &solo})
	if err != nil {
		t.Fatal(err)
	}
	budget := solo.PeakBytes
	spill := t.TempDir()
	eng := &Engine{MemoryBudget: budget, SpillDir: spill, Threads: 2}

	var wg sync.WaitGroup
	results := make([][]PatternCount, 2)
	errs := make([]error, 2)
	stats := make([]Stats, 2)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = eng.Motifs(bgCtx, g, 5, Config{Stats: &stats[i]})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
	for i, res := range results {
		if len(res) != len(want) {
			t.Fatalf("run %d: %d motif shapes, want %d", i, len(res), len(want))
		}
		for j := range res {
			if res[j].Count != want[j].Count {
				t.Fatalf("run %d: count mismatch for %v: %d vs %d", i, res[j].Pattern, res[j].Count, want[j].Count)
			}
		}
	}
	// The combined resident peak — tracked continuously by the arbiter —
	// must respect the single budget the two runs shared.
	if eng.PeakBytes() > budget {
		t.Fatalf("combined resident peak %d exceeds the shared budget %d", eng.PeakBytes(), budget)
	}
	// The budget actually constrained the pair: at least one run spilled
	// (each alone nearly fills the budget, together they cannot both fit).
	if stats[0].SpilledParts+stats[1].SpilledParts == 0 {
		t.Fatalf("no spilling despite contention: peaks %d+%d under budget %d",
			stats[0].PeakBytes, stats[1].PeakBytes, budget)
	}
	if files := spillFiles(t, spill); len(files) != 0 {
		t.Fatalf("spill files leaked: %v", files)
	}
}

// TestEngineMinersShareBudget drives two custom Miners vended by one Engine
// in lockstep and samples the combined footprint after every expansion.
func TestEngineMinersShareBudget(t *testing.T) {
	g, err := Synthetic(400, 1600, 4, 13)
	if err != nil {
		t.Fatal(err)
	}
	// Solo reference sizes the budget to one run's resident footprint.
	ref, err := g.NewMiner(bgCtx, VertexInduced, Config{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	for i := 0; i < 2; i++ {
		if err := ref.Expand(bgCtx, nil); err != nil {
			t.Fatal(err)
		}
	}
	budget := ref.Bytes()

	spill := t.TempDir()
	eng := &Engine{MemoryBudget: budget, SpillDir: spill, Threads: 2}
	var miners [2]*Miner
	for i := range miners {
		m, err := eng.NewMiner(bgCtx, g, VertexInduced, Config{})
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		miners[i] = m
	}
	for round := 0; round < 2; round++ {
		for _, m := range miners {
			if err := m.Expand(bgCtx, nil); err != nil {
				t.Fatal(err)
			}
			if sum := miners[0].Bytes() + miners[1].Bytes(); sum > budget {
				t.Fatalf("round %d: combined resident %d exceeds shared budget %d", round, sum, budget)
			}
		}
	}
	for i, m := range miners {
		if m.Count() != ref.Count() {
			t.Fatalf("miner %d: count %d, want %d", i, m.Count(), ref.Count())
		}
	}
	// Two runs, one budget sized for one: the second run must have spilled.
	if miners[0].SpilledParts()+miners[1].SpilledParts() == 0 {
		t.Fatal("no spilling despite two runs sharing a one-run budget")
	}
	for _, m := range miners {
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if files := spillFiles(t, spill); len(files) != 0 {
		t.Fatalf("spill files leaked after Close: %v", files)
	}
}

// TestPublicCancellation cancels runs through every public entry point and
// checks the contract: ctx.Err() comes back, and no spill files survive.
func TestPublicCancellation(t *testing.T) {
	g, err := Synthetic(400, 1600, 4, 17)
	if err != nil {
		t.Fatal(err)
	}
	spill := t.TempDir()
	cfg := Config{Threads: 2, MemoryBudget: 1, SpillDir: spill}

	// Cancel mid-run from inside the filter of a Miner expansion.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m, err := g.NewMiner(ctx, VertexInduced, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Expand(ctx, nil); err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	err = m.Expand(ctx, func(_ int, _ []uint32, _ uint32) bool {
		if calls.Add(1) == 200 {
			cancel()
		}
		return true
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Miner.Expand returned %v", err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if files := spillFiles(t, spill); len(files) != 0 {
		t.Fatalf("spill files leaked after cancelled Expand + Close: %v", files)
	}

	// Already-cancelled contexts short-circuit the app entry points.
	done, cancelDone := context.WithCancel(context.Background())
	cancelDone()
	if _, err := g.Triangles(done, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("Triangles = %v", err)
	}
	if _, err := g.Cliques(done, 4, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("Cliques = %v", err)
	}
	if _, err := g.Motifs(done, 4, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("Motifs = %v", err)
	}
	if _, err := g.FSM(done, 3, 2, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("FSM = %v", err)
	}
	if files := spillFiles(t, spill); len(files) != 0 {
		t.Fatalf("spill files leaked after cancelled app runs: %v", files)
	}

	// A mid-run cancel of a full application (spilling enabled) also
	// reclaims everything on its way out.
	midCtx, midCancel := context.WithCancel(context.Background())
	go func() {
		// Cancel as soon as the run has had a chance to start spilling.
		// Walk errors are expected noise (files appear and vanish under
		// the walker) — only a non-test goroutine-safe check here.
		for midCtx.Err() == nil {
			n := 0
			filepath.Walk(spill, func(path string, info os.FileInfo, err error) error {
				if err == nil && !info.IsDir() {
					n++
				}
				return nil
			})
			if n > 0 {
				break
			}
			time.Sleep(time.Millisecond)
		}
		midCancel()
	}()
	if _, err := g.Motifs(midCtx, 4, cfg); err == nil {
		midCancel()
	} else if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-run Motifs = %v", err)
	}
	midCancel()
	if files := spillFiles(t, spill); len(files) != 0 {
		t.Fatalf("spill files leaked after mid-run cancel: %v", files)
	}
}

// TestEngineStats sanity-checks the engine-level accounting surface.
func TestEngineStats(t *testing.T) {
	g := paperGraph(t)
	eng := &Engine{}
	n, err := eng.Triangles(bgCtx, g, Config{})
	if err != nil || n != 3 {
		t.Fatalf("engine Triangles = %d, %v", n, err)
	}
	if eng.ResidentBytes() != 0 {
		t.Fatalf("resident bytes after run = %d", eng.ResidentBytes())
	}
	if eng.PeakBytes() == 0 {
		t.Fatal("no combined peak recorded")
	}
	// Engine-level knobs are validated like Config ones.
	bad := &Engine{MemoryBudget: 10}
	if _, err := bad.Triangles(bgCtx, g, Config{}); err == nil {
		t.Fatal("engine budget without spill dir accepted")
	}
}
