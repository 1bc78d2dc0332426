package bench

import (
	"fmt"
	"os"
	"strings"
	"sync"
	"time"

	"kaleido"
)

// concurrent measures the Engine's shared-budget multiplexing: N identical
// 4-motif runs on a synthetic power-law graph, first sequentially (one run
// at a time, sole owner of the budget), then concurrently through one
// kaleido.Engine (all runs charging a single pool). The table reports the
// wall time of completing all N runs, the combined resident peak the arbiter
// recorded, and the per-run spilled part counts — the peak staying under the
// budget at every N is the point of the cross-run watermark.
func concurrent(cfg RunConfig) ([]Result, error) {
	g, err := kaleido.Synthetic(600, 2400, 8, 42)
	if err != nil {
		return nil, err
	}
	// Budget from a solo in-memory run: one run nearly fills it, so
	// concurrent runs must arbitrate.
	var solo kaleido.Stats
	if _, err := g.Motifs(bgCtx, 4, kaleido.Config{Threads: cfg.Threads, Stats: &solo}); err != nil {
		return nil, err
	}
	budget := solo.PeakBytes

	res := Result{
		ID:     "concurrent",
		Title:  fmt.Sprintf("N concurrent 4-Motif runs, one %0.1f MB budget (Engine arbiter)", float64(budget)/(1<<20)),
		Header: []string{"Runs", "sequential t", "concurrent t", "combined peak MB", "peak/budget", "spilled parts"},
	}
	counts := []int{1, 2, 4}
	if cfg.Quick {
		counts = []int{1, 2}
	}
	for _, n := range counts {
		dir, err := os.MkdirTemp(cfg.SpillDir, "conc")
		if err != nil {
			return nil, err
		}
		// Sequential baseline: each run still budget-bound, but alone.
		eng := &kaleido.Engine{
			MemoryBudget: budget, SpillDir: dir, Threads: cfg.Threads,
		}
		start := time.Now()
		for i := 0; i < n; i++ {
			if _, err := eng.Motifs(bgCtx, g, 4, kaleido.Config{}); err != nil {
				os.RemoveAll(dir)
				return nil, err
			}
		}
		seq := time.Since(start).Seconds()

		eng = &kaleido.Engine{
			MemoryBudget: budget, SpillDir: dir, Threads: cfg.Threads,
		}
		var wg sync.WaitGroup
		errs := make([]error, n)
		stats := make([]kaleido.Stats, n)
		start = time.Now()
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				_, errs[i] = eng.Motifs(bgCtx, g, 4, kaleido.Config{Stats: &stats[i]})
			}(i)
		}
		wg.Wait()
		conc := time.Since(start).Seconds()
		os.RemoveAll(dir)
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
		res.Rows = append(res.Rows, []string{
			fmt.Sprint(n),
			fmt.Sprintf("%.2f", seq),
			fmt.Sprintf("%.2f", conc),
			fmt.Sprintf("%.1f", float64(eng.PeakBytes())/(1<<20)),
			fmt.Sprintf("%.0f%%", 100*float64(eng.PeakBytes())/float64(budget)),
			perRunSpills(stats),
		})
	}
	res.Notes = append(res.Notes,
		"budget = one solo run's tracked peak; concurrent runs share it through the Engine arbiter",
		"peak/budget staying under 100% at every N is the cross-run watermark doing its job",
		"spilled parts are totals with the per-run breakdown in parentheses")
	return []Result{res}, nil
}

// perRunSpills renders the runs' spilled part counts as "total (a+b+…)" — or
// just the number for a single run.
func perRunSpills(stats []kaleido.Stats) string {
	total := 0
	parts := make([]string, len(stats))
	for i, s := range stats {
		total += s.SpilledParts
		parts[i] = fmt.Sprint(s.SpilledParts)
	}
	if len(stats) == 1 {
		return fmt.Sprint(total)
	}
	return fmt.Sprintf("%d (%s)", total, strings.Join(parts, "+"))
}
