package kaleido

// Robustness tests of the public surface: the typed spill-error taxonomy,
// the Config.Faults injection seam, retry accounting in Stats, and Engine
// run isolation — a panicking or failing run must not take its siblings (or
// the process) down with it.

import (
	"errors"
	"strings"
	"testing"
)

// TestFaultSpecTransparentRetries: a run under a seeded transient-fault
// schedule returns the identical result to a fault-free run, and surfaces
// the absorbed faults through Stats.IORetries.
func TestFaultSpecTransparentRetries(t *testing.T) {
	g, err := Synthetic(250, 1000, 4, 23)
	if err != nil {
		t.Fatal(err)
	}
	want, err := g.Motifs(bgCtx, 4, Config{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	got, err := g.Motifs(bgCtx, 4, Config{
		Threads: 2, MemoryBudget: 1, SpillDir: t.TempDir(), Stats: &st,
		Faults: &FaultSpec{Seed: 99, ReadErrorP: 0.02, WriteErrorP: 0.02, ShortWriteP: 0.02},
	})
	if err != nil {
		t.Fatalf("faulted run failed: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d motif shapes under faults, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Count != want[i].Count {
			t.Fatalf("count mismatch for %v: %d vs %d", got[i].Pattern, got[i].Count, want[i].Count)
		}
	}
	if st.IORetries == 0 {
		t.Fatal("faults were injected but Stats.IORetries is zero")
	}
	if st.WriteBytes == 0 {
		t.Fatal("budget 1 spilled nothing")
	}
}

// TestTypedSpillErrors: hard faults dispatch through the re-exported
// sentinels with errors.Is.
func TestTypedSpillErrors(t *testing.T) {
	g, err := Synthetic(400, 1600, 4, 29)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Threads: 2, MemoryBudget: 1, SpillDir: t.TempDir()}

	cfg.Faults = &FaultSpec{Seed: 7, BitFlipP: 1}
	if _, err := g.Motifs(bgCtx, 4, cfg); !errors.Is(err, ErrSpillCorrupt) {
		t.Fatalf("bit-flipped run returned %v, want ErrSpillCorrupt", err)
	}

	cfg.Faults = &FaultSpec{Seed: 7, WriteCapBytes: 256}
	err = func() error { _, err := g.Motifs(bgCtx, 4, cfg); return err }()
	if !errors.Is(err, ErrNoSpace) {
		t.Fatalf("full-device run returned %v, want ErrNoSpace", err)
	}
	if errors.Is(err, ErrSpillCorrupt) {
		t.Fatalf("ENOSPC double-classified as corruption: %v", err)
	}
}

// TestEngineRunPanicIsolation: a panicking run recovers into an error,
// releases its share of the engine's budget, removes its spill directory,
// and leaves a concurrent sibling run fully functional.
func TestEngineRunPanicIsolation(t *testing.T) {
	g, err := Synthetic(400, 1600, 4, 31)
	if err != nil {
		t.Fatal(err)
	}
	spill := t.TempDir()
	eng := &Engine{MemoryBudget: 1 << 16, SpillDir: spill, Threads: 2}

	// Sibling A: expanded once and held open across B's crash.
	a, err := eng.NewMiner(bgCtx, g, VertexInduced, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if err := a.Expand(bgCtx, nil); err != nil {
		t.Fatal(err)
	}
	wantCount := a.Count()

	// Sibling B: panics from a user callback mid-expansion.
	b, err := eng.NewMiner(bgCtx, g, VertexInduced, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Expand(bgCtx, nil); err != nil {
		t.Fatal(err)
	}
	err = b.ExpandVisit(bgCtx, nil, func(int, []uint32, uint32) error {
		panic("user callback exploded")
	})
	if err == nil {
		t.Fatal("panicking ExpandVisit returned nil")
	}
	if !strings.Contains(err.Error(), "panic") || !strings.Contains(err.Error(), "user callback exploded") {
		t.Fatalf("recovered panic lost its payload: %v", err)
	}

	// B's failure must not have poisoned A: it can still expand and walk.
	if err := b.Close(); err != nil {
		t.Fatalf("closing the panicked run: %v", err)
	}
	if a.Count() != wantCount {
		t.Fatalf("sibling count changed across B's crash: %d, want %d", a.Count(), wantCount)
	}
	if err := a.Expand(bgCtx, nil); err != nil {
		t.Fatalf("sibling expansion after B's crash: %v", err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}

	// Everything released: no resident bytes, no files.
	if eng.ResidentBytes() != 0 {
		t.Fatalf("resident bytes leaked: %d", eng.ResidentBytes())
	}
	if files := spillFiles(t, spill); len(files) != 0 {
		t.Fatalf("spill files leaked: %v", files)
	}
}

// TestEngineRunNoSpaceIsolation: one run hitting ENOSPC fails typed while a
// concurrent sibling on the same engine (but a healthy filesystem) finishes
// with the right answer. Both count 4-cliques, which store (and so spill)
// level 2.
func TestEngineRunNoSpaceIsolation(t *testing.T) {
	g, err := Synthetic(400, 1600, 4, 37)
	if err != nil {
		t.Fatal(err)
	}
	want, err := g.Cliques(bgCtx, 4, Config{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	spill := t.TempDir()
	eng := &Engine{MemoryBudget: 1 << 12, SpillDir: spill, Threads: 2}

	type res struct {
		n   uint64
		err error
	}
	healthy := make(chan res, 1)
	doomed := make(chan res, 1)
	go func() {
		n, err := eng.Cliques(bgCtx, g, 4, Config{})
		healthy <- res{n, err}
	}()
	go func() {
		n, err := eng.Cliques(bgCtx, g, 4, Config{Faults: &FaultSpec{Seed: 3, WriteCapBytes: 512}})
		doomed <- res{n, err}
	}()
	h, d := <-healthy, <-doomed
	if h.err != nil || h.n != want {
		t.Fatalf("healthy sibling: %d, %v (want %d)", h.n, h.err, want)
	}
	if !errors.Is(d.err, ErrNoSpace) {
		t.Fatalf("doomed sibling returned %v, want ErrNoSpace", d.err)
	}
	if eng.ResidentBytes() != 0 {
		t.Fatalf("resident bytes leaked: %d", eng.ResidentBytes())
	}
	if files := spillFiles(t, spill); len(files) != 0 {
		t.Fatalf("spill files leaked: %v", files)
	}
}
