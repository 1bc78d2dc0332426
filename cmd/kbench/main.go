// Command kbench regenerates the tables and figures of the Kaleido paper's
// evaluation (§6) on the scaled synthetic datasets.
//
// Usage:
//
//	kbench -exp table2            # one experiment
//	kbench -exp all -quick        # the full suite, reduced grids
//	kbench -list                  # the experiment ids
//
// Experiments, in paper order: table2 (+fig10), table3, fig11, fig12 (the
// isomorphism layer — whole-application Eigen vs bliss-like plus classes,
// backend calls and ns per backend call), fig13, fig14, table4 and fig16
// (+fig15). Each result's notes quote the paper's figure next to the
// measured one. kbench exits 1 if an experiment or any run inside one
// failed; the paper's holes ('-', '/') and the reduced grid's 'skip' cells
// are not failures.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"kaleido/internal/bench"
	"kaleido/internal/service"
)

func main() {
	exp := flag.String("exp", "all", "experiment id or 'all'")
	quick := flag.Bool("quick", false, "reduced grids (CI-sized)")
	threads := flag.Int("threads", runtime.GOMAXPROCS(0), "worker threads")
	cache := flag.String("cache", service.DefaultCacheDir(), "dataset cache directory")
	spill := flag.String("spill", os.TempDir(), "scratch directory for hybrid storage")
	list := flag.Bool("list", false, "list experiment ids and exit")
	flag.Parse()

	if *list {
		for _, id := range bench.Experiments() {
			fmt.Println(id)
		}
		return
	}
	cfg := bench.RunConfig{
		Threads:  *threads,
		CacheDir: *cache,
		SpillDir: *spill,
		Quick:    *quick,
	}
	ids := []string{*exp}
	if *exp == "all" {
		ids = bench.Experiments()
	}
	failed := false
	for _, id := range ids {
		results, err := bench.Run(id, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "kbench: %s: %v\n", id, err)
			os.Exit(1)
		}
		for _, r := range results {
			fmt.Println(r.Render())
			for _, f := range r.Failures() {
				fmt.Fprintf(os.Stderr, "kbench: %s: %s\n", r.ID, f)
				failed = true
			}
		}
	}
	if failed {
		os.Exit(1)
	}
}
