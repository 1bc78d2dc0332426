package apps

// Fault-matrix conformance (robustness): all four applications, across the
// three storage regimes (all-memory, hybrid, all-disk), must complete under a
// seeded schedule of transient spill faults with results identical to the
// fault-free run — the retry/backoff layer is invisible to correctness. Hard
// faults (bit-flip corruption, ENOSPC) must fail with the right typed error,
// leak no spill files, and drain every goroutine.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"kaleido/internal/graph"
	"kaleido/internal/run"
	"kaleido/internal/storage"
	"kaleido/internal/storage/vfs"
)

// regimes is the storage matrix: memory only, half-and-half, everything on
// disk (budget 1 byte spills every part).
var regimes = []struct {
	name   string
	budget int64
}{
	{"mem", 0},
	{"hybrid", 4 << 10},
	{"disk", 1},
}

// transientFaults is the p≈1% schedule every app must ride out.
var transientFaults = vfs.Fault{
	Seed:     1234,
	ReadErrP: 0.01, WriteErrP: 0.01, ShortWriteP: 0.01,
	LatencyP: 0.005, Latency: 100 * time.Microsecond,
}

// appResults is one full run of the four applications.
type appResults struct {
	tri, cliq uint64
	motifs    []PatternCount
	fsm       []PatternCount
}

// matrixGraph is the fixed input of the matrix: small enough that the whole
// matrix runs in seconds, dense enough that every regime with a budget spills.
func matrixGraph() *graph.Graph {
	rng := rand.New(rand.NewSource(77))
	return randomGraph(rng, 100, 800, 3)
}

func runAllApps(t *testing.T, opt *run.Env) (appResults, error) {
	t.Helper()
	g := matrixGraph()
	var r appResults
	var err error
	if r.tri, err = TriangleCount(context.Background(), g, opt); err != nil {
		return r, fmt.Errorf("triangles: %w", err)
	}
	if r.cliq, err = CliqueCount(context.Background(), g, 4, opt); err != nil {
		return r, fmt.Errorf("cliques: %w", err)
	}
	if r.motifs, err = MotifCount(context.Background(), g, 4, opt); err != nil {
		return r, fmt.Errorf("motifs: %w", err)
	}
	if r.fsm, _, err = FSM(context.Background(), g, 3, 2, opt); err != nil {
		return r, fmt.Errorf("fsm: %w", err)
	}
	return r, nil
}

// comparePatternCounts asserts two aggregations are identical: same patterns
// (by encoding), counts, and supports, in the same deterministic order.
func comparePatternCounts(t *testing.T, what string, got, want []PatternCount) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d patterns, want %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i].Count != want[i].Count || got[i].Support != want[i].Support ||
			got[i].Pattern.Encode() != want[i].Pattern.Encode() {
			t.Fatalf("%s: pattern %d = (%v, %d, %d), want (%v, %d, %d)", what, i,
				got[i].Pattern, got[i].Count, got[i].Support,
				want[i].Pattern, want[i].Count, want[i].Support)
		}
	}
}

// leakedFiles returns the files left under dir.
func leakedFiles(t *testing.T, dir string) []string {
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

func waitDrained(t *testing.T, base int) {
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

func TestFaultMatrixTransient(t *testing.T) {
	base, err := runAllApps(t, &run.Env{Threads: 3})
	if err != nil {
		t.Fatal(err)
	}
	if base.tri == 0 || base.cliq == 0 || len(base.motifs) == 0 {
		t.Fatalf("degenerate baseline: %+v", base)
	}
	for _, reg := range regimes {
		reg := reg
		t.Run(reg.name, func(t *testing.T) {
			baseGoroutines := runtime.NumGoroutine()
			dir := t.TempDir()
			ff := vfs.NewFaultFS(nil, transientFaults)
			got, err := runAllApps(t, &run.Env{
				Threads: 3, MemoryBudget: reg.budget, SpillDir: dir, FS: ff,
			})
			if err != nil {
				t.Fatalf("%s under transient faults: %v", reg.name, err)
			}
			if got.tri != base.tri {
				t.Fatalf("triangles = %d, want %d", got.tri, base.tri)
			}
			if got.cliq != base.cliq {
				t.Fatalf("cliques = %d, want %d", got.cliq, base.cliq)
			}
			comparePatternCounts(t, "motifs", got.motifs, base.motifs)
			comparePatternCounts(t, "fsm", got.fsm, base.fsm)
			if reg.budget > 0 {
				st := ff.Stats()
				if st.Writes == 0 {
					t.Fatalf("budgeted regime never wrote through the fault FS: %+v", st)
				}
			}
			if files := leakedFiles(t, dir); len(files) != 0 {
				t.Fatalf("spill files leaked: %v", files)
			}
			waitDrained(t, baseGoroutines)
		})
	}
}

// TestFaultMatrixCorruption: with every read flipping one bit, any spilling
// regime must fail with ErrSpillCorrupt — never return wrong counts — and
// still tear down cleanly. (Every spilled byte is under a block CRC; the
// all-memory regime reads nothing and is exercised by the transient matrix
// above.)
func TestFaultMatrixCorruption(t *testing.T) {
	for _, reg := range regimes[1:] { // hybrid, disk
		reg := reg
		t.Run(reg.name, func(t *testing.T) {
			baseGoroutines := runtime.NumGoroutine()
			dir := t.TempDir()
			ff := vfs.NewFaultFS(nil, vfs.Fault{Seed: 55, BitFlipP: 1})
			_, err := runAllApps(t, &run.Env{
				Threads: 3, MemoryBudget: reg.budget, SpillDir: dir, FS: ff,
			})
			if err == nil {
				t.Fatal("bit-flipped spill reads produced a result")
			}
			if !errors.Is(err, storage.ErrSpillCorrupt) {
				t.Fatalf("corruption surfaced as %v, want ErrSpillCorrupt", err)
			}
			if files := leakedFiles(t, dir); len(files) != 0 {
				t.Fatalf("spill files leaked after corrupt failure: %v", files)
			}
			waitDrained(t, baseGoroutines)
		})
	}
}

// TestFaultMatrixNoSpace: a full spill device must fail the run with
// ErrNoSpace, leak nothing, and drain every goroutine.
func TestFaultMatrixNoSpace(t *testing.T) {
	for _, reg := range regimes[1:] { // hybrid, disk
		reg := reg
		t.Run(reg.name, func(t *testing.T) {
			baseGoroutines := runtime.NumGoroutine()
			dir := t.TempDir()
			ff := vfs.NewFaultFS(nil, vfs.Fault{Seed: 56, WriteCap: 256})
			_, err := runAllApps(t, &run.Env{
				Threads: 3, MemoryBudget: reg.budget, SpillDir: dir, FS: ff,
			})
			if err == nil {
				t.Fatal("run on a full device produced a result")
			}
			if !errors.Is(err, storage.ErrNoSpace) {
				t.Fatalf("full device surfaced as %v, want ErrNoSpace", err)
			}
			if files := leakedFiles(t, dir); len(files) != 0 {
				t.Fatalf("spill files leaked after ENOSPC failure: %v", files)
			}
			waitDrained(t, baseGoroutines)
		})
	}
}
