// Command kbench regenerates the tables and figures of the Kaleido paper's
// evaluation (§6) on the scaled synthetic datasets.
//
// Usage:
//
//	kbench -exp table2            # one experiment
//	kbench -exp all -quick        # the full suite, reduced grids
//
// Experiments: table2 (+fig10), table3, fig11, fig12 (alias iso: the
// isomorphism layer — whole-application Eigen vs bliss-like plus classes,
// backend calls and ns per backend call), fig13, fig14, table4,
// fig16 (+fig15), plus "sinks" — the fused terminal-
// expansion paths (clique-d4 / motif-d3 of BENCH_expand.json) with their
// all-disk write-byte accounting — "compress" — the spill codec's time and
// logical vs physical bytes on disk — "concurrent" —
// N concurrent runs sharing one memory budget through a kaleido.Engine,
// with the combined resident peak the arbiter recorded — and "service" — N jobs
// submitted to an in-process kaleidod HTTP daemon against the same N direct
// Engine runs, with the admission queue's wait columns and the counts pinned
// across both paths. Each result's notes quote the paper's figure next to the
// measured one.
//
// `kbench -faults` runs the fault-injection campaign instead: a seeded
// vfs.FaultFS injects transient spill faults (EIO, short writes) across the
// three storage regimes and the campaign verifies the retry layer absorbed
// them without changing any count, then demonstrates the hard-fault contract
// (bit-flip corruption → ErrSpillCorrupt, full device → ErrNoSpace). Tune it
// with -fault-p and -fault-seed.
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
	faults := flag.Bool("faults", false, "run the fault-injection campaign (shorthand for -exp faults)")
	faultP := flag.Float64("fault-p", 0, "per-op probability of each transient fault class in the faults campaign (0 = default 0.01)")
	faultSeed := flag.Int64("fault-seed", 0, "fault schedule seed (0 = default 42)")
	list := flag.Bool("list", false, "list experiment ids and exit")
	flag.Parse()

	if *list {
		for _, id := range bench.Experiments() {
			fmt.Println(id)
		}
		return
	}
	cfg := bench.RunConfig{
		Threads:   *threads,
		CacheDir:  *cache,
		SpillDir:  *spill,
		Quick:     *quick,
		FaultP:    *faultP,
		FaultSeed: *faultSeed,
	}
	ids := []string{*exp}
	if *faults {
		ids = []string{"faults"}
	} else if *exp == "all" {
		ids = bench.Experiments()
	}
	for _, id := range ids {
		results, err := bench.Run(id, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "kbench: %s: %v\n", id, err)
			os.Exit(1)
		}
		for _, r := range results {
			fmt.Println(r.Render())
		}
	}
}
