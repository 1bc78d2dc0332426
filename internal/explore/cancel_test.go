package explore

// Cancellation tests: a cancelled operation must return ctx.Err() promptly,
// leave the explorer's previous levels usable, and leak neither spill files
// nor goroutines — Close reclaims everything.

import (
	"context"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"kaleido/internal/memtrack"
	"kaleido/internal/run"
	"kaleido/internal/storage"
)

// dirEntries returns every file under dir (recursively).
func dirEntries(t *testing.T, dir string) []string {
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

// waitGoroutines polls until the goroutine count drops back to at most base
// (with slack for runtime housekeeping) or the deadline passes.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines did not drain: %d (baseline %d)", runtime.NumGoroutine(), base)
}

// cancelDuringExpand runs one expansion under the given budget (0 = none)
// whose filter cancels the context after trips calls, then verifies the
// cancellation contract.
func cancelDuringExpand(t *testing.T, budget int64, trips int64) {
	baseGoroutines := runtime.NumGoroutine()
	rng := rand.New(rand.NewSource(101))
	g := randomGraph(rng, 200, 1200)
	spill := t.TempDir()
	e, err := New(Config{Graph: g, Mode: VertexInduced, Env: &run.Env{
		Threads:      4,
		MemoryBudget: budget, SpillDir: spill,
		Tracker: memtrack.New(),
	}})
	if err != nil {
		t.Fatal(err)
	}
	// Tiny write buffers: the queue stays busy mid-cancel. (The queue New
	// made is idle until something spills, so swapping it is safe.)
	e.queue.Close()
	e.queue = storage.NewWriteQueue(256, e.cfg.Tracker)
	if err := e.InitVertices(nil); err != nil {
		t.Fatal(err)
	}
	if err := e.Expand(bgCtx, nil, nil); err != nil {
		t.Fatal(err)
	}
	want := collect(t, e)
	depth, bytes := e.Depth(), e.Bytes()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var calls atomic.Int64
	filter := func(_ int, _ []uint32, _, _ uint32) bool {
		if calls.Add(1) == trips {
			cancel()
		}
		return true
	}
	err = e.Expand(ctx, filter, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Expand returned %v, want context.Canceled", err)
	}
	// The partial level is discarded: depth and data are the pre-cancel ones.
	if e.Depth() != depth || e.Bytes() != bytes {
		t.Fatalf("cancel changed the CSE: depth %d->%d bytes %d->%d", depth, e.Depth(), bytes, e.Bytes())
	}
	if got := collect(t, e); !reflect.DeepEqual(got, want) {
		t.Fatal("pre-cancel top level changed")
	}
	// The explorer still works: the same expansion completes uncancelled, on
	// the builder the cancelled one aborted, with the result of an explorer
	// that was never cancelled.
	if err := e.Expand(bgCtx, filter, nil); err != nil {
		t.Fatal(err)
	}
	ref := newVertexExplorer(t, g, 4)
	for i := 0; i < 2; i++ {
		if err := ref.Expand(bgCtx, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := collect(t, e); !reflect.DeepEqual(got, collect(t, ref)) {
		t.Fatalf("expansion after a cancelled one differs: %d embeddings, want %d", e.Count(), ref.Count())
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if files := dirEntries(t, spill); len(files) != 0 {
		t.Fatalf("spill files leaked after Close: %v", files)
	}
	waitGoroutines(t, baseGoroutines)
}

func TestExpandCancelHybrid(t *testing.T) {
	// Budget sized so expansions spill some parts mid-build: the cancel
	// lands while the write queue holds pending migrations.
	cancelDuringExpand(t, 64<<10, 500)
}

func TestExpandCancelAllDisk(t *testing.T) {
	cancelDuringExpand(t, 1, 500)
}

// TestExpandCancelUnbudgeted cancels mid-expand with no budget: the aborted
// build is all raw parts, which go back to the part pool.
func TestExpandCancelUnbudgeted(t *testing.T) {
	cancelDuringExpand(t, 0, 500)
}

func TestExpandCancelInMemory(t *testing.T) {
	baseGoroutines := runtime.NumGoroutine()
	rng := rand.New(rand.NewSource(103))
	g := randomGraph(rng, 200, 1200)
	e := newVertexExplorer(t, g, 4)
	if err := e.Expand(bgCtx, nil, nil); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled: the expansion must not start
	if err := e.Expand(ctx, nil, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("Expand on cancelled ctx returned %v", err)
	}
	if _, err := e.ExpandCount(ctx, nil, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("ExpandCount on cancelled ctx returned %v", err)
	}
	if err := e.ForEach(ctx, func(int, []uint32) error { return nil }); !errors.Is(err, context.Canceled) {
		t.Fatalf("ForEach on cancelled ctx returned %v", err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, baseGoroutines)
}

// TestExpandVisitCancel cancels a terminal (non-storing) expansion from
// inside the visit callback.
func TestExpandVisitCancel(t *testing.T) {
	rng := rand.New(rand.NewSource(107))
	g := randomGraph(rng, 150, 900)
	e := newVertexExplorer(t, g, 4)
	if err := e.Expand(bgCtx, nil, nil); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var visits atomic.Int64
	err := e.ExpandVisit(ctx, nil, nil, func(int, []uint32, uint32) error {
		if visits.Add(1) == 300 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled ExpandVisit returned %v", err)
	}
}
