package run_test

import (
	"context"
	"runtime"
	"testing"

	"kaleido/internal/apps"
	"kaleido/internal/graph"
	"kaleido/internal/run"
)

// TestWorkers pins the one place the worker default is resolved: Threads
// when set, one worker per CPU otherwise. Run it under -cpu 1,2,4 to see the
// default follow GOMAXPROCS.
func TestWorkers(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for _, tc := range []struct{ threads, want int }{
		{0, procs},
		{1, 1},
		{3, 3},
		{procs + 5, procs + 5},
	} {
		env := &run.Env{Threads: tc.threads}
		if got := env.Workers(); got != tc.want {
			t.Errorf("Threads %d at GOMAXPROCS %d: Workers() = %d, want %d", tc.threads, procs, got, tc.want)
		}
	}
}

// TestZeroEnvIsUnbudgetedRun: the zero Env is a valid run — all CPUs,
// everything in memory, no accounting — and gives the answers of an
// explicitly configured one.
func TestZeroEnvIsUnbudgetedRun(t *testing.T) {
	var env run.Env
	if env.MemoryBudget != 0 || env.SpillDir != "" || env.FS != nil || env.Tracker != nil || env.Spill != nil {
		t.Fatalf("zero Env is not unbudgeted and unaccounted: %+v", env)
	}
	if env.Iso != run.IsoEigen {
		t.Fatalf("zero Env iso backend %d, want IsoEigen", env.Iso)
	}
	if env.Workers() != runtime.GOMAXPROCS(0) {
		t.Fatalf("zero Env Workers() = %d, want GOMAXPROCS %d", env.Workers(), runtime.GOMAXPROCS(0))
	}
	// K4 plus a pendant vertex: 4 triangles, one 4-clique.
	b := graph.NewBuilder(5)
	for _, e := range [][2]uint32{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}, {3, 4}} {
		b.AddEdge(e[0], e[1])
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for k, want := range map[int]uint64{3: 4, 4: 1} {
		got, err := apps.CliqueCount(ctx, g, k, &env)
		if err != nil {
			t.Fatalf("zero Env %d-cliques: %v", k, err)
		}
		one, err := apps.CliqueCount(ctx, g, k, &run.Env{Threads: 1})
		if err != nil {
			t.Fatal(err)
		}
		if got != want || one != want {
			t.Fatalf("%d-cliques: zero Env %d, one thread %d, want %d", k, got, one, want)
		}
	}
}
