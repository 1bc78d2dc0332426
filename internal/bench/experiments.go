package bench

import (
	"fmt"
	"os"
	"time"

	"kaleido/internal/apps"
	"kaleido/internal/blisslike"
	"kaleido/internal/dataset"
	"kaleido/internal/eigen"
	"kaleido/internal/gen"
	"kaleido/internal/graph"
	"kaleido/internal/memtrack"
	"kaleido/internal/pattern"
	"kaleido/internal/run"
)

// coarsenPatent maps the 37 fine labels to 7 coarse categories (Fig. 13's
// PA-7 variant).
func coarsenPatent(g *graph.Graph) (*graph.Graph, error) {
	return dataset.CoarsenPatentLabels(g)
}

// fig11 reproduces Fig. 11: 3-FSM run time and memory over an increasing
// support sweep. The paper sweeps 100..5M on the full-size graphs; supports
// here are scaled with the datasets (EXPERIMENTS.md records the mapping).
func fig11(cfg RunConfig) ([]Result, error) {
	supports := []uint64{10, 50, 100, 300, 1000, 3000, 10000}
	if cfg.Quick {
		supports = []uint64{10, 100, 1000, 10000}
	}
	res := Result{
		ID:     "Fig. 11",
		Title:  "3-FSM run time (s) and memory (MB) vs support",
		Header: []string{"Dataset"},
	}
	for _, s := range supports {
		res.Header = append(res.Header, fmt.Sprintf("t@%d", s), fmt.Sprintf("MB@%d", s))
	}
	for _, ds := range []string{"mico", "patent", "youtube"} {
		g, err := loadDataset(ds, cfg)
		if err != nil {
			return nil, err
		}
		row := []string{ds}
		for _, s := range supports {
			m := timed(func(tr *memtrack.Tracker) error {
				_, _, err := apps.FSM(bgCtx, g, 3, s, &run.Env{Threads: cfg.Threads, Tracker: tr})
				return err
			})
			row = append(row, m.timeCell(), m.memCell())
		}
		res.Rows = append(res.Rows, row)
	}
	res.Notes = append(res.Notes,
		"expected shape (paper): run time rises to a peak then falls — early-stop marking makes mid supports the hardest")
	return []Result{res}, nil
}

// fig12 reproduces Fig. 12: the eigenvalue isomorphism check vs the
// bliss-like canonical labeler on Motif and FSM workloads. Beside the paper's
// whole-application times it reports the isomorphism layer itself: how many
// classes the run found, how often it actually ran the backend (the per-worker
// memo in front of it absorbs every repeated pattern), and what one backend
// call costs on the run's own class representatives.
func fig12(cfg RunConfig) ([]Result, error) {
	res := Result{
		ID:    "Fig. 12",
		Title: "isomorphism backends: EigenHash vs bliss-like (run time s / backend calls / ns per call / memory MB)",
		Header: []string{"Workload", "Eigen t", "Bliss t", "speedup", "classes", "calls",
			"Eigen ns/call", "Bliss ns/call", "per-call", "Eigen MB", "Bliss MB"},
	}
	type wl struct {
		name    string
		ds      string
		app     string
		k       int
		support uint64
	}
	wls := []wl{
		{"3-Motif(patent)", "patent", "motif", 3, 0},
		{"3-Motif(mico)", "mico", "motif", 3, 0},
		{"3-Motif(youtube)", "youtube", "motif", 3, 0},
		{"3-FSM(patent,300)", "patent", "fsm", 3, 300},
		{"3-FSM(mico,300)", "mico", "fsm", 3, 300},
		{"3-FSM(youtube,300)", "youtube", "fsm", 3, 300},
		{"4-Motif(mico)", "mico", "motif", 4, 0},
		{"4-FSM(patent,300)", "patent", "fsm", 4, 300},
		{"5-Motif(citeseer)", "citeseer", "motif", 5, 0},
		{"5-FSM(citeseer,10)", "citeseer", "fsm", 5, 10},
	}
	if cfg.Quick {
		// The CI grid keeps one motif and one FSM pair per class at 3/4
		// vertices.
		wls = []wl{wls[0], wls[3], {"4-Motif(citeseer)", "citeseer", "motif", 4, 0}}
	}
	for _, w := range wls {
		g, err := loadDataset(w.ds, cfg)
		if err != nil {
			return nil, err
		}
		var classes []apps.PatternCount
		var info run.SpillInfo
		measure := func(iso run.IsoAlgo) measured {
			return timed(func(tr *memtrack.Tracker) error {
				opt := &run.Env{Threads: cfg.Threads, Tracker: tr, Iso: iso, Spill: &info}
				var err error
				if w.app == "motif" {
					classes, err = apps.MotifCount(bgCtx, g, w.k, opt)
				} else {
					classes, _, err = apps.FSM(bgCtx, g, w.k, w.support, opt)
				}
				return err
			})
		}
		eig := measure(run.IsoEigen)
		calls := info.IsoCalls
		info = run.SpillInfo{}
		bls := measure(run.IsoBliss)
		row := []string{w.name, eig.timeCell(), bls.timeCell(), "-", "-", "-", "-", "-", "-", eig.memCell(), bls.memCell()}
		if eig.skipped == "" && bls.skipped == "" && eig.seconds > 0 {
			row[3] = fmt.Sprintf("%.1fx", bls.seconds/eig.seconds)
			row[4] = fmt.Sprint(len(classes))
			row[5] = fmt.Sprint(calls)
			if len(classes) > 0 {
				eigNs := backendNs(eigen.New().Hash, classes)
				blsNs := backendNs(blisslike.Hash, classes)
				row[6], row[7] = fmt.Sprintf("%.0f", eigNs), fmt.Sprintf("%.0f", blsNs)
				row[8] = fmt.Sprintf("%.1fx", blsNs/eigNs)
			}
		}
		res.Rows = append(res.Rows, row)
	}
	res.Notes = append(res.Notes,
		"paper: 5.8× speedup for motif counting, 2.1× for FSM (whole-application times; the iso check is one component)",
		"the backend runs once per distinct filled pattern per worker (calls), not once per embedding, so hashing is off the critical path and the whole-application speedup collapses toward 1×; the paper's Fig. 12 quantity — what one isomorphism check costs under each backend — is the per-call column, timed on the run's class representatives")
	return []Result{res}, nil
}

// backendNs times one isomorphism backend over the class representatives of
// a run, cycling through them for at least 20 ms, and returns ns per call.
func backendNs(hash func(*pattern.Pattern) uint64, classes []apps.PatternCount) float64 {
	calls := 0
	start := time.Now()
	for time.Since(start) < 20*time.Millisecond {
		for _, pc := range classes {
			p := *pc.Pattern
			hash(&p)
			calls++
		}
	}
	return float64(time.Since(start).Nanoseconds()) / float64(calls)
}

// fig13 reproduces Fig. 13: 3-/4-FSM over the Patent graph with 7 coarse vs
// 37 fine labels, Eigen vs bliss-like, across supports.
func fig13(cfg RunConfig) ([]Result, error) {
	g37, err := loadDataset("patent", cfg)
	if err != nil {
		return nil, err
	}
	g7, err := coarsenPatent(g37)
	if err != nil {
		return nil, err
	}
	supports3 := []uint64{30, 100, 300, 1000}
	supports4 := []uint64{200, 400}
	if cfg.Quick {
		supports3 = []uint64{100, 1000}
		supports4 = nil
	}
	res := Result{
		ID:     "Fig. 13",
		Title:  "FSM on patent-like, 7 vs 37 labels (run time s / memory MB)",
		Header: []string{"Workload", "Eigen t", "Bliss t", "Eigen MB", "Bliss MB"},
	}
	add := func(name string, g *graph.Graph, k int, s uint64) {
		measure := func(iso run.IsoAlgo) measured {
			return timed(func(tr *memtrack.Tracker) error {
				_, _, err := apps.FSM(bgCtx, g, k, s, &run.Env{Threads: cfg.Threads, Tracker: tr, Iso: iso})
				return err
			})
		}
		eig, bls := measure(run.IsoEigen), measure(run.IsoBliss)
		res.Rows = append(res.Rows, []string{name, eig.timeCell(), bls.timeCell(), eig.memCell(), bls.memCell()})
	}
	for _, s := range supports3 {
		add(fmt.Sprintf("3-FSM PA-7 s=%d", s), g7, 3, s)
		add(fmt.Sprintf("3-FSM PA-37 s=%d", s), g37, 3, s)
	}
	for _, s := range supports4 {
		add(fmt.Sprintf("4-FSM PA-7 s=%d", s), g7, 4, s)
		add(fmt.Sprintf("4-FSM PA-37 s=%d", s), g37, 4, s)
	}
	res.Notes = append(res.Notes,
		"paper: bliss is more sensitive to the label count than Kaleido (more labels → bigger search trees / hash space)")
	return []Result{res}, nil
}

// fig14 reproduces Fig. 14: scalability of 3-FSM, 3-Motif and 5-Clique over
// the Patent graph at 2..32 threads.
func fig14(cfg RunConfig) ([]Result, error) {
	g, err := loadDataset("patent", cfg)
	if err != nil {
		return nil, err
	}
	threads := []int{2, 4, 8, 16, 32}
	if cfg.Quick {
		threads = []int{2, 4, 8}
	}
	res := Result{
		ID:     "Fig. 14",
		Title:  "scalability on patent-like (run time s / memory MB)",
		Header: []string{"Threads", "3-FSM-5000 t", "3-FSM MB", "3-Motif t", "3-Motif MB", "5-Clique t", "5-Clique MB"},
	}
	for _, t := range threads {
		row := []string{fmt.Sprint(t)}
		fsm := timed(func(tr *memtrack.Tracker) error {
			_, _, err := apps.FSM(bgCtx, g, 3, 5000, &run.Env{Threads: t, Tracker: tr})
			return err
		})
		motif := timed(func(tr *memtrack.Tracker) error {
			_, err := apps.MotifCount(bgCtx, g, 3, &run.Env{Threads: t, Tracker: tr})
			return err
		})
		clique := timed(func(tr *memtrack.Tracker) error {
			_, err := apps.CliqueCount(bgCtx, g, 5, &run.Env{Threads: t, Tracker: tr})
			return err
		})
		row = append(row, fsm.timeCell(), fsm.memCell(), motif.timeCell(), motif.memCell(),
			clique.timeCell(), clique.memCell())
		res.Rows = append(res.Rows, row)
	}
	res.Notes = append(res.Notes,
		"paper: Motif and Clique scale near-ideally; FSM is sublinear and its memory grows with threads (per-thread pattern maps)")
	return []Result{res}, nil
}

// table4 reproduces Table 4: in-memory vs hybrid storage for 4-FSM and
// 4-Motif. Supports are scaled from the paper's 50k/100k.
func table4(cfg RunConfig) ([]Result, error) {
	res := Result{
		ID:     "Table 4",
		Title:  "in-memory vs hybrid storage (run time s / memory MB)",
		Header: []string{"App", "InMem t", "InMem MB", "Hybrid t", "Hybrid MB", "slowdown"},
	}
	type wl struct {
		name    string
		ds      string
		app     string
		support uint64
	}
	wls := []wl{
		{"4-FSM(patent,150)", "patent", "fsm", 150},
		{"4-FSM(patent,300)", "patent", "fsm", 300},
		{"4-Motif(patent)", "patent", "motif", 0},
		{"4-Motif(mico)", "mico", "motif", 0},
	}
	if cfg.Quick {
		wls = []wl{wls[1]}
	}
	for _, w := range wls {
		g, err := loadDataset(w.ds, cfg)
		if err != nil {
			return nil, err
		}
		measure := func(budget int64, dir string) measured {
			return timed(func(tr *memtrack.Tracker) error {
				opt := &run.Env{
					Threads: cfg.Threads, Tracker: tr,
					MemoryBudget: budget, SpillDir: dir, Predict: budget > 0,
				}
				if w.app == "motif" {
					_, err := apps.MotifCount(bgCtx, g, 4, opt)
					return err
				}
				_, _, err := apps.FSM(bgCtx, g, 4, w.support, opt)
				return err
			})
		}
		mem := measure(0, "")
		dir, err := os.MkdirTemp(cfg.SpillDir, "t4")
		if err != nil {
			return nil, err
		}
		// Budget below the in-memory peak forces the last level(s) to disk.
		hyb := measure(maxI64(mem.peak/4, 1<<20), dir)
		os.RemoveAll(dir)
		slow := "-"
		if mem.skipped == "" && hyb.skipped == "" && mem.seconds > 0 {
			slow = fmt.Sprintf("%.0f%%", 100*(hyb.seconds-mem.seconds)/mem.seconds)
		}
		res.Rows = append(res.Rows, []string{w.name, mem.timeCell(), mem.memCell(), hyb.timeCell(), hyb.memCell(), slow})
	}
	res.Notes = append(res.Notes, "paper: hybrid-storage slowdown stays below 30% in these applications")
	return []Result{res}, nil
}

// fig16 reproduces Fig. 15/16: 4-FSM I/O and run time under decreasing
// memory budgets (the paper used cgroup limits; here the budget directly
// drives spilling, which is what the cgroup limit induced).
func fig16(cfg RunConfig) ([]Result, error) {
	g, err := loadDataset("patent", cfg)
	if err != nil {
		return nil, err
	}
	// Baseline in-memory run to size the budgets.
	const f16support = 150
	base := timed(func(tr *memtrack.Tracker) error {
		_, _, err := apps.FSM(bgCtx, g, 4, f16support, &run.Env{Threads: cfg.Threads, Tracker: tr})
		return err
	})
	if base.skipped != "" {
		return nil, fmt.Errorf("bench: baseline run failed: %s", base.skipped)
	}
	// The tracked peak is dominated by pattern-map domains; the CSE levels
	// that the budget governs are a small fraction of it, so the budget
	// fractions reach well below it to force spilling (the paper's Fig. 16
	// similarly caps RAM far below the 24 GB working set).
	fracs := []float64{0.01, 0.03, 0.125, 0.5, 1.5}
	if cfg.Quick {
		fracs = []float64{0.01, 0.05, 1.5}
	}
	res := Result{
		ID:     "Fig. 15/16",
		Title:  "4-FSM(patent,150) under memory budgets",
		Header: []string{"Budget(MB)", "time (s)", "slowdown", "read MB", "write MB"},
	}
	for _, f := range fracs {
		budget := maxI64(int64(float64(base.peak)*f), 1<<20)
		dir, err := os.MkdirTemp(cfg.SpillDir, "f16")
		if err != nil {
			return nil, err
		}
		tr := memtrack.New()
		start := time.Now()
		_, _, err = apps.FSM(bgCtx, g, 4, f16support, &run.Env{
			Threads: cfg.Threads, Tracker: tr,
			MemoryBudget: budget, SpillDir: dir, Predict: true,
		})
		secs := time.Since(start).Seconds()
		os.RemoveAll(dir)
		if err != nil {
			return nil, err
		}
		r, w := tr.IOTotals()
		res.Rows = append(res.Rows, []string{
			fmt.Sprintf("%.1f", float64(budget)/(1<<20)),
			fmt.Sprintf("%.2f", secs),
			fmt.Sprintf("%.0f%%", 100*(secs-base.seconds)/base.seconds),
			fmt.Sprintf("%.1f", float64(r)/(1<<20)),
			fmt.Sprintf("%.1f", float64(w)/(1<<20)),
		})
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("in-memory baseline: %.2fs, peak %.1f MB", base.seconds, float64(base.peak)/(1<<20)),
		"paper: with the cache capped below the working set the run time increases within 20%")
	return []Result{res}, nil
}

// fig17 reproduces Fig. 17/18: prediction vs non-prediction load balance in
// hybrid storage (run time, plus a worker-balance factor standing in for the
// CPU-utilization timelines of Fig. 18).
func fig17(cfg RunConfig) ([]Result, error) {
	res := Result{
		ID:     "Fig. 17/18",
		Title:  "hybrid-storage load balance: prediction vs non-prediction",
		Header: []string{"Workload", "Pred t", "NoPred t", "speedup"},
	}
	type wl struct {
		name    string
		ds      string
		app     string
		support uint64
	}
	wls := []wl{
		{"4-Motif(mico)", "mico", "motif", 0},
		{"4-Motif(patent)", "patent", "motif", 0},
		{"4-FSM(patent,150)", "patent", "fsm", 150},
		{"4-FSM(patent,300)", "patent", "fsm", 300},
	}
	if cfg.Quick {
		wls = []wl{wls[2]}
	}
	for _, w := range wls {
		g, err := loadDataset(w.ds, cfg)
		if err != nil {
			return nil, err
		}
		measure := func(predict bool) measured {
			dir, err := os.MkdirTemp(cfg.SpillDir, "f17")
			if err != nil {
				return measured{skipped: "err:" + err.Error()}
			}
			defer os.RemoveAll(dir)
			return timed(func(tr *memtrack.Tracker) error {
				opt := &run.Env{
					Threads: cfg.Threads, Tracker: tr,
					MemoryBudget: 1, SpillDir: dir, Predict: predict,
				}
				if w.app == "motif" {
					_, err := apps.MotifCount(bgCtx, g, 4, opt)
					return err
				}
				_, _, err := apps.FSM(bgCtx, g, 4, w.support, opt)
				return err
			})
		}
		pred := measure(true)
		nopred := measure(false)
		speed := "-"
		if pred.skipped == "" && nopred.skipped == "" && pred.seconds > 0 {
			speed = fmt.Sprintf("%.2fx", nopred.seconds/pred.seconds)
		}
		res.Rows = append(res.Rows, []string{w.name, pred.timeCell(), nopred.timeCell(), speed})
	}
	res.Notes = append(res.Notes, "paper: prediction outperforms non-prediction by ~1.2× and smooths CPU utilization (Fig. 18)")
	return []Result{res}, nil
}

// sinks measures the fused terminal paths end-to-end on the benchmark's
// synthetic power-law graph (the clique-d4 / motif-d3 cases of
// BENCH_expand.json, plus a small FSM): each workload's final level is
// consumed at the expansion frontier (CountSink / VisitSink), so under an
// all-disk budget the run's write bytes cover only its stored levels — the
// terminal level contributes nothing.
func sinks(cfg RunConfig) ([]Result, error) {
	res := Result{
		ID:     "sinks",
		Title:  "fused terminal expansion, synthetic power-law (4000 v, 16000 e)",
		Header: []string{"Workload", "t", "peak MB", "disk writes (budget 1 B)"},
	}
	g, err := gen.PowerLaw(gen.Config{N: 4000, M: 16000, Alpha: 2.6, NumLabels: 8, LabelSkew: 0.7, Seed: 42})
	if err != nil {
		return nil, err
	}
	type wl struct {
		name string
		run  func(opt *run.Env) error
	}
	wls := []wl{
		{"4-Clique (CountSink)", func(opt *run.Env) error { _, err := apps.CliqueCount(bgCtx, g, 4, opt); return err }},
		{"3-Motif (VisitSink)", func(opt *run.Env) error { _, err := apps.MotifCount(bgCtx, g, 3, opt); return err }},
		{"3-FSM s=100 (VisitSink+KeepSink)", func(opt *run.Env) error { _, _, err := apps.FSM(bgCtx, g, 3, 100, opt); return err }},
	}
	if cfg.Quick {
		wls = wls[:2]
	}
	for _, w := range wls {
		m := timed(func(tr *memtrack.Tracker) error {
			return w.run(&run.Env{Threads: cfg.Threads, Tracker: tr})
		})
		dir, err := os.MkdirTemp(cfg.SpillDir, "sinks")
		if err != nil {
			return nil, err
		}
		tr := memtrack.New()
		err = w.run(&run.Env{
			Threads: cfg.Threads, Tracker: tr, MemoryBudget: 1, SpillDir: dir,
		})
		os.RemoveAll(dir)
		if err != nil {
			return nil, fmt.Errorf("bench: %s under all-disk budget: %w", w.name, err)
		}
		_, wr := tr.IOTotals()
		res.Rows = append(res.Rows, []string{w.name, m.timeCell(), m.memCell(), fmt.Sprintf("%.1f KB", float64(wr)/1024)})
	}
	res.Notes = append(res.Notes,
		"terminal levels write zero bytes: the disk-writes column counts only the k-2 stored levels (differential tests in internal/apps pin the counts)")
	return []Result{res}, nil
}

// compress measures the spill codec end-to-end: out-of-core workloads with
// every level on disk, reporting wall time and the logical/physical split of
// the spilled level data (logical bytes are exactly what spilling raw words
// would have written).
func compress(cfg RunConfig) ([]Result, error) {
	res := Result{
		ID:     "compress",
		Title:  "spill compression (budget 1 B, all levels out of core), synthetic power-law (4000 v, 16000 e)",
		Header: []string{"Workload", "t", "spill MB logical", "spill MB physical", "ratio"},
	}
	g, err := gen.PowerLaw(gen.Config{N: 4000, M: 16000, Alpha: 2.6, NumLabels: 8, LabelSkew: 0.7, Seed: 42})
	if err != nil {
		return nil, err
	}
	type wl struct {
		name string
		run  func(opt *run.Env) error
	}
	wls := []wl{
		{"4-Clique", func(opt *run.Env) error { _, err := apps.CliqueCount(bgCtx, g, 4, opt); return err }},
		{"4-Motif", func(opt *run.Env) error { _, err := apps.MotifCount(bgCtx, g, 4, opt); return err }},
		{"3-FSM s=100", func(opt *run.Env) error { _, _, err := apps.FSM(bgCtx, g, 3, 100, opt); return err }},
	}
	if cfg.Quick {
		wls = wls[:1]
	}
	for _, w := range wls {
		dir, err := os.MkdirTemp(cfg.SpillDir, "compress")
		if err != nil {
			return nil, err
		}
		var spill run.SpillInfo
		m := timed(func(tr *memtrack.Tracker) error {
			return w.run(&run.Env{
				Threads: cfg.Threads, Tracker: tr, MemoryBudget: 1, SpillDir: dir,
				Spill: &spill,
			})
		})
		os.RemoveAll(dir)
		if m.skipped != "" {
			return nil, fmt.Errorf("bench: %s: %s", w.name, m.skipped)
		}
		ratio := "-"
		if p := spill.SpilledBytesPhysical; p > 0 {
			ratio = fmt.Sprintf("%.2fx", float64(spill.SpilledBytes)/float64(p))
		}
		res.Rows = append(res.Rows, []string{
			w.name, m.timeCell(),
			fmt.Sprintf("%.2f", float64(spill.SpilledBytes)/(1<<20)),
			fmt.Sprintf("%.2f", float64(spill.SpilledBytesPhysical)/(1<<20)),
			ratio,
		})
	}
	res.Notes = append(res.Notes,
		"logical MB is the raw word size of the spilled level parts, physical MB what their codec blocks occupy on disk; ratio = logical/physical",
		"the codec is block-aligned with the sparse group index, so random access stays one block per probe")
	return []Result{res}, nil
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
