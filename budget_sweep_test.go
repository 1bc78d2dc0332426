package kaleido

import (
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"
)

// TestBudgetSweepFig16 walks the paper's memory-budget sweep (Fig. 16) as an
// invariant that needs no reference CPU: a Miner expanded to depth 3 under
// budgets of 1 byte and 0.2, 0.45, 0.75 and ∞ × its in-memory level bytes,
// with 1 and 2 workers. Every budget must yield the same count and the same
// original-id embeddings, and the tracked peak of a budgeted run must stay
// within the spill watermark (0.9 × budget) plus the lag of slab charging
// (1/64 of the watermark) plus one group per worker. With one worker, where
// placement does not depend on the schedule, the logical bytes spilled must
// not grow as the budget does; two workers racing for the watermark may pick
// different victims, so there they are only logged. Wall times are logged,
// not asserted.
func TestBudgetSweepFig16(t *testing.T) {
	g, err := Synthetic(600, 4000, 1, 16)
	if err != nil {
		t.Fatal(err)
	}
	const (
		depth    = 3
		maxGroup = 1 << 12 // governor bytes of a 1022-child group: more than any parent here has
	)
	type result struct {
		embs    [][depth]uint32
		count   int
		bytes   int64 // resident level bytes at depth
		spilled int64 // logical
		peak    int64
		wall    time.Duration
	}
	sweep := func(threads int, budget int64) result {
		t.Helper()
		var st Stats
		cfg := Config{Threads: threads, MemoryBudget: budget, Stats: &st}
		if budget > 0 {
			cfg.SpillDir = t.TempDir()
		}
		start := time.Now()
		m, err := g.NewMiner(bgCtx, VertexInduced, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for m.Depth() < depth {
			if err := m.Expand(bgCtx, nil); err != nil {
				t.Fatal(err)
			}
		}
		r := result{count: m.Count(), bytes: m.Bytes(), spilled: m.SpilledBytes()}
		var mu sync.Mutex
		if err := m.ForEach(bgCtx, func(_ int, emb []uint32) error {
			mu.Lock()
			r.embs = append(r.embs, [depth]uint32(emb))
			mu.Unlock()
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
		r.wall, r.peak = time.Since(start), st.PeakBytes
		sort.Slice(r.embs, func(i, j int) bool {
			a, b := r.embs[i], r.embs[j]
			for k := range a {
				if a[k] != b[k] {
					return a[k] < b[k]
				}
			}
			return false
		})
		return r
	}
	ref := sweep(1, 0)
	if ref.count == 0 || ref.spilled != 0 {
		t.Fatalf("in-memory reference: %d embeddings, %d bytes spilled", ref.count, ref.spilled)
	}
	budgets := []struct {
		name   string
		budget int64
	}{
		{"1B", 1},
		{"0.20", ref.bytes / 5},
		{"0.45", ref.bytes * 45 / 100},
		{"0.75", ref.bytes * 3 / 4},
		{"∞", 0},
	}
	for _, threads := range []int{1, 2} {
		prevSpilled := int64(-1)
		for _, b := range budgets {
			name := fmt.Sprintf("threads %d, budget %s", threads, b.name)
			r := sweep(threads, b.budget)
			t.Logf("%s (%d B): peak %d B, spilled %d B logical, %v", name, b.budget, r.peak, r.spilled, r.wall)
			if r.count != ref.count || len(r.embs) != len(ref.embs) {
				t.Fatalf("%s: %d embeddings (%d listed), want %d", name, r.count, len(r.embs), ref.count)
			}
			for i := range r.embs {
				if r.embs[i] != ref.embs[i] {
					t.Fatalf("%s: embedding %d is %v, want %v", name, i, r.embs[i], ref.embs[i])
				}
			}
			// A 1-byte budget has a zero watermark; what its run tracks is the
			// fixed overhead no budget moves, so only the others are held to it.
			watermark := int64(0.9 * float64(b.budget))
			if bound := watermark + watermark/64 + int64(threads*maxGroup); b.budget > 1 && r.peak > bound {
				t.Errorf("%s: tracked peak %d B over watermark %d + lag = %d", name, r.peak, watermark, bound)
			}
			if threads == 1 && prevSpilled >= 0 && r.spilled > prevSpilled {
				t.Errorf("%s spilled %d logical bytes, more than the smaller budget before it (%d)", name, r.spilled, prevSpilled)
			}
			prevSpilled = r.spilled
		}
	}
}
