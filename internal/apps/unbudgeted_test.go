package apps

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"

	"kaleido/internal/explore"
	"kaleido/internal/run"
	"kaleido/internal/storage/vfs"
)

// noFS is a filesystem that is not there: every operation fails and is
// counted.
type noFS struct{ calls atomic.Int64 }

var errNoFS = errors.New("no filesystem")

func (f *noFS) Create(string) (vfs.File, error) { f.calls.Add(1); return nil, errNoFS }
func (f *noFS) Remove(string) error             { f.calls.Add(1); return errNoFS }
func (f *noFS) MkdirAll(string) error           { f.calls.Add(1); return errNoFS }
func (f *noFS) RemoveAll(string) error          { f.calls.Add(1); return errNoFS }
func (f *noFS) MkdirTemp(string, string) (string, error) {
	f.calls.Add(1)
	return "", errNoFS
}

// TestUnbudgetedTouchesNoFilesystem: a run without a memory budget never
// migrates a part, so it must need nothing of the spill path — no directory,
// no file, no write-queue goroutine. The four applications and an explorer
// driven to depth 4 complete over a filesystem whose every operation fails,
// without calling it once, and leave the goroutine count where it was
// (TestFSMPrunesBeforeStore holds FSM's pruned levels to the same).
func TestUnbudgetedTouchesNoFilesystem(t *testing.T) {
	baseGoroutines := runtime.NumGoroutine()
	fs := &noFS{}
	want, err := runAllApps(t, &run.Env{Threads: 3})
	if err != nil {
		t.Fatal(err)
	}
	got, err := runAllApps(t, &run.Env{Threads: 3, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	if got.tri != want.tri || got.cliq != want.cliq {
		t.Fatalf("counts differ: %d/%d vs %d/%d", got.tri, got.cliq, want.tri, want.cliq)
	}
	comparePatternCounts(t, "motifs", got.motifs, want.motifs)
	comparePatternCounts(t, "fsm", got.fsm, want.fsm)

	e, err := explore.New(explore.Config{Graph: matrixGraph(), Mode: explore.VertexInduced, Env: &run.Env{Threads: 3, FS: fs}})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.InitVertices(nil); err != nil {
		t.Fatal(err)
	}
	for e.Depth() < 4 {
		if err := e.Expand(context.Background(), nil, nil); err != nil {
			t.Fatal(err)
		}
		if during := runtime.NumGoroutine(); during > baseGoroutines+2 {
			t.Fatalf("depth %d: %d goroutines between operations (baseline %d): something was started", e.Depth(), during, baseGoroutines)
		}
	}
	if e.Count() == 0 || e.SpilledParts() != 0 {
		t.Fatalf("%d embeddings, %d parts spilled", e.Count(), e.SpilledParts())
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if n := fs.calls.Load(); n != 0 {
		t.Fatalf("%d filesystem calls without a budget", n)
	}
	waitDrained(t, baseGoroutines)
}
