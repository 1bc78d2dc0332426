// Out-of-core mining: run 4-motif counting under a deliberately tiny memory
// budget so the deeper CSE levels spill to disk (the paper's §4.1
// half-memory-half-disk hybrid storage), then compare against the in-memory
// run — same answer, bounded memory, modest slowdown (paper Table 4 reports
// < 30%). A third variant runs two mining jobs concurrently through one
// kaleido.Engine, whose budget arbiter makes the two runs share a single
// memory budget instead of each assuming it owns the whole machine.
//
// Spilling is per part, governed during the build: every level starts in
// memory, and when the resident bytes reach the spill watermark — 90 % of
// MemoryBudget — the governor migrates the parts still growing to SpillDir
// while the finished ones stay in RAM. A level slightly over budget therefore pays disk I/O only for
// its spilled share — Stats.SpilledParts vs Stats.SpilledLevels below shows
// how partial the spilling was. Under an Engine the same watermark is a
// cross-run property: the governor reads the combined resident bytes of
// every run the engine has vended.
//
// Worked example: with MemoryBudget = 64 MB, a run whose levels reach 40 MB
// never touches SpillDir. If the next level would push the resident total to
// 80 MB, the governor starts migrating parts at ≈ 57.6 MB (0.9 × 64 MB);
// roughly 22 MB of that level ends up in SpillDir and the rest stays hot. The
// 10 % above the watermark is headroom for growth between governor decisions;
// to leave more room for the untracked remainder of the process, lower
// MemoryBudget. Two concurrent runs through an Engine with the same 64 MB
// budget trip the same ≈ 57.6 MB watermark on their combined levels.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"sync"
	"time"

	"kaleido"
)

func main() {
	// Every blocking call takes a context; cancelling it aborts the run
	// promptly and Close/return paths still reclaim all spilled files.
	ctx := context.Background()

	// Sized so the demo finishes in about a minute: the 4-motif pattern
	// hashing dominates the run time, while the budget below is relative to
	// the measured peak, so the spill behavior is the same at any scale.
	g, err := kaleido.Synthetic(1000, 4000, 8, 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("graph: %d vertices, %d edges, avg degree %.1f\n", g.N(), g.M(), g.AvgDegree())

	// In-memory baseline.
	var memStats kaleido.Stats
	start := time.Now()
	inMem, err := g.Motifs(ctx, 4, kaleido.Config{Stats: &memStats})
	if err != nil {
		log.Fatal(err)
	}
	memTime := time.Since(start)
	fmt.Printf("in-memory:   %8.2fs, peak %6.1f MB\n",
		memTime.Seconds(), float64(memStats.PeakBytes)/(1<<20))

	// Hybrid run: budget far below the in-memory peak, so the level builds
	// cross the watermark and the governor spills part of each big level.
	spill, err := os.MkdirTemp("", "kaleido-spill")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(spill)
	var hybStats kaleido.Stats
	start = time.Now()
	hybrid, err := g.Motifs(ctx, 4, kaleido.Config{
		// Spilling starts when resident bytes reach 90% of the budget,
		// keeping 10% headroom for growth between governor decisions.
		MemoryBudget: memStats.PeakBytes / 8,
		SpillDir:     spill,
		Stats:        &hybStats,
	})
	if err != nil {
		log.Fatal(err)
	}
	hybTime := time.Since(start)
	fmt.Printf("out-of-core: %8.2fs, peak %6.1f MB, %6.1f MB written / %6.1f MB read back\n",
		hybTime.Seconds(), float64(hybStats.PeakBytes)/(1<<20),
		float64(hybStats.WriteBytes)/(1<<20), float64(hybStats.ReadBytes)/(1<<20))
	fmt.Printf("spilling:    %d level(s) crossed the watermark, %d part(s) migrated to disk\n",
		hybStats.SpilledLevels, hybStats.SpilledParts)

	if len(inMem) != len(hybrid) {
		log.Fatalf("result mismatch: %d vs %d motif shapes", len(inMem), len(hybrid))
	}
	for i := range inMem {
		if inMem[i].Count != hybrid[i].Count {
			log.Fatalf("count mismatch for %v: %d vs %d", inMem[i].Pattern, inMem[i].Count, hybrid[i].Count)
		}
	}
	fmt.Printf("results identical across storage modes: %d motif shapes\n", len(inMem))
	fmt.Printf("slowdown: %.0f%%  memory reduction: %.1fx\n",
		100*(hybTime.Seconds()-memTime.Seconds())/memTime.Seconds(),
		float64(memStats.PeakBytes)/float64(hybStats.PeakBytes))

	// Two concurrent runs, one budget: an Engine arbitrates the same
	// MemoryBudget across every run it vends. Each run charges the shared
	// pool, so the spill governor fires on the combined resident bytes —
	// without the Engine, each run would believe it owned the whole budget
	// and together they could use twice it.
	eng := &kaleido.Engine{
		MemoryBudget: memStats.PeakBytes / 8,
		SpillDir:     spill,
	}
	var wg sync.WaitGroup
	results := make([][]kaleido.PatternCount, 2)
	errs := make([]error, 2)
	start = time.Now()
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = eng.Motifs(ctx, g, 4, kaleido.Config{})
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			log.Fatal(err)
		}
	}
	for i, res := range results {
		if len(res) != len(inMem) {
			log.Fatalf("concurrent run %d: %d motif shapes, want %d", i, len(res), len(inMem))
		}
	}
	fmt.Printf("two concurrent runs, one shared budget: %8.2fs, combined peak %6.1f MB (budget %6.1f MB)\n",
		time.Since(start).Seconds(),
		float64(eng.PeakBytes())/(1<<20),
		float64(memStats.PeakBytes/8)/(1<<20))
}
