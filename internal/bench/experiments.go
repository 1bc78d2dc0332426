package bench

import (
	"fmt"
	"os"
	"sort"
	"time"

	"kaleido/internal/apps"
	"kaleido/internal/blisslike"
	"kaleido/internal/dataset"
	"kaleido/internal/eigen"
	"kaleido/internal/graph"
	"kaleido/internal/memtrack"
	"kaleido/internal/pattern"
	"kaleido/internal/run"
)

// fig11 reproduces Fig. 11: 3-FSM run time and memory over an increasing
// support sweep. The paper sweeps 100..5M on the full-size graphs; supports
// here are scaled with the datasets.
func fig11(cfg RunConfig) ([]Result, error) {
	supports := []uint64{10, 50, 100, 300, 1000, 3000, 10000}
	if cfg.Quick {
		supports = []uint64{10, 100, 1000, 10000}
	}
	res := Result{
		ID:     "Fig. 11",
		Title:  "3-FSM run time (s) and memory (KB) vs support",
		Header: []string{"Dataset"},
	}
	for _, s := range supports {
		res.Header = append(res.Header, fmt.Sprintf("t@%d", s), fmt.Sprintf("KB@%d", s))
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
		Title: "isomorphism backends: EigenHash vs bliss-like (run time s / backend calls / ns per call / memory KB)",
		Header: []string{"Workload", "Eigen t", "Bliss t", "speedup", "classes", "calls",
			"Eigen ns/call", "Bliss ns/call", "per-call", "Eigen KB", "Bliss KB"},
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
		"the backend runs once per distinct sorted pattern per worker (calls), not once per embedding, so hashing is off the critical path and the whole-application speedup collapses toward 1×; the paper's Fig. 12 quantity — what one isomorphism check costs under each backend — is the per-call column, timed on the run's class representatives")
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
	g7, err := dataset.CoarsenPatentLabels(g37) // Fig. 13's PA-7: 37 fine labels → 7 coarse
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
		Title:  "FSM on patent-like, 7 vs 37 labels (run time s / memory KB)",
		Header: []string{"Workload", "Eigen t", "Bliss t", "Eigen KB", "Bliss KB"},
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
		Title:  "scalability on patent-like (run time s / memory KB)",
		Header: []string{"Threads", "3-FSM-5000 t", "3-FSM KB", "3-Motif t", "3-Motif KB", "5-Clique t", "5-Clique KB"},
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
// 4-Motif. Each row's hybrid budget comes from its in-memory run's stored
// levels (hybridBudget), so the largest of them cannot fit.
func table4(cfg RunConfig) ([]Result, error) {
	res := Result{
		ID:     "Table 4",
		Title:  "in-memory vs hybrid storage (run time s / memory KB)",
		Header: []string{"App", "InMem t", "InMem KB", "Hybrid t", "Hybrid KB", "disk parts", "slowdown"},
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
	runs := table4Runs
	if cfg.Quick {
		wls, runs = []wl{wls[1]}, 1
	}
	for _, w := range wls {
		g, err := loadDataset(w.ds, cfg)
		if err != nil {
			return nil, err
		}
		measure := func(budget int64, dir string, info *run.SpillInfo) measured {
			return timed(func(tr *memtrack.Tracker) error {
				opt := &run.Env{
					Threads: cfg.Threads, Tracker: tr,
					MemoryBudget: budget, SpillDir: dir, Spill: info,
				}
				if w.app == "motif" {
					_, err := apps.MotifCount(bgCtx, g, 4, opt)
					return err
				}
				_, _, err := apps.FSM(bgCtx, g, 4, w.support, opt)
				return err
			})
		}
		// One untimed in-memory run first: it pays the cold start (graph
		// pages, pools, heap growth) that would otherwise land on the first
		// timed run alone, and its levels size the hybrid budget. Then the
		// two regimes alternate, table4Runs timed runs each, and each cell
		// is the run of median time.
		var memInfo run.SpillInfo
		measure(0, "", &memInfo)
		mems := make([]measured, runs)
		hybs := make([]measured, runs)
		hybInfos := make([]run.SpillInfo, runs)
		for i := range mems {
			mems[i] = measure(0, "", nil)
			dir, err := os.MkdirTemp(cfg.SpillDir, "t4")
			if err != nil {
				return nil, err
			}
			hybs[i] = measure(hybridBudget(memInfo.Levels), dir, &hybInfos[i])
			os.RemoveAll(dir)
		}
		mem, _ := medianRun(mems)
		hyb, hi := medianRun(hybs)
		hybInfo := hybInfos[hi]
		disk, parts := 0, 0
		for _, l := range hybInfo.Levels {
			disk, parts = disk+l.DiskParts, parts+l.DiskParts+l.MemParts
		}
		slow := "-"
		switch {
		case hyb.skipped == "" && disk == 0:
			slow = "no spill"
		case mem.skipped == "" && hyb.skipped == "" && mem.seconds > 0:
			slow = fmt.Sprintf("%.0f%%", 100*(hyb.seconds-mem.seconds)/mem.seconds)
		}
		res.Rows = append(res.Rows, []string{w.name, mem.timeCell(), mem.memCell(), hyb.timeCell(), hyb.memCell(), fmt.Sprintf("%d/%d", disk, parts), slow})
	}
	res.Notes = append(res.Notes,
		"paper: hybrid-storage slowdown stays below 30% in these applications",
		"hybrid budget: the in-memory run's stored levels minus half the largest, so about half of that level spills; disk parts counts the hybrid run's spilled parts out of all its stored levels' parts",
		"an untimed in-memory run precedes the timed runs, so none pays the cold start",
		fmt.Sprintf("each cell is the median-time run of n = %d, in-memory and hybrid runs alternating; disk parts are the median hybrid run's", runs))
	if !cfg.Quick {
		res.Notes = append(res.Notes,
			"4-Motif stores levels 1-2 only (the row walk counts levels 3 and 4 at the frontier), so its hybrid rows spill level 2 alone; the paper's 4-Motif stored level 3 as well")
	}
	return []Result{res}, nil
}

// table4Runs is how many timed runs of each regime a full Table 4 row takes
// the median of: one run per cell moved the slowdown column by tens of
// percent from invocation to invocation.
const table4Runs = 3

// medianRun returns the run of median time — the upper middle of an even
// count — and its index, or the first failed run.
func medianRun(runs []measured) (measured, int) {
	idx := make([]int, len(runs))
	for i := range idx {
		if runs[i].skipped != "" {
			return runs[i], i
		}
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return runs[idx[a]].seconds < runs[idx[b]].seconds })
	m := idx[len(idx)/2]
	return runs[m], m
}

// hybridBudget is the memory budget under which the largest built level of
// levels (an in-memory run's SpillInfo.Levels, base level first) cannot
// fit: the bytes of every level, less half of the largest built one, so
// that at the 0.9 spill watermark the other levels stay resident and less
// than half of the largest does.
func hybridBudget(levels []run.LevelStat) int64 {
	var total, largest int64
	for i, l := range levels {
		total += l.ResidentBytes
		if i > 0 {
			largest = max(largest, l.ResidentBytes)
		}
	}
	return max(total-largest/2, 1)
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
			MemoryBudget: budget, SpillDir: dir,
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
		fmt.Sprintf("in-memory baseline: %.2fs, peak %.1f KB", base.seconds, float64(base.peak)/(1<<10)),
		"paper: with the cache capped below the working set the run time increases within 20%")
	return []Result{res}, nil
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
