// Package bench implements the evaluation harness of §6: one experiment per
// table and figure of the paper, each regenerating the same rows or series
// the paper reports, on the scaled synthetic datasets of internal/dataset
// (whose descriptors carry the scale factors); each result's notes quote the
// paper's numbers next to the measured ones.
package bench

import (
	"context"
	"fmt"
	"math"
	"strings"
	"time"

	"kaleido/internal/apps"
	"kaleido/internal/arabesque"
	"kaleido/internal/dataset"
	"kaleido/internal/graph"
	"kaleido/internal/memtrack"
	"kaleido/internal/rstream"
	"kaleido/internal/run"
)

// bgCtx is the uncancellable context of the harness's own runs: experiments
// are driven to completion, not cancelled.
var bgCtx = context.Background()

// RunConfig configures an experiment run.
type RunConfig struct {
	Threads  int
	CacheDir string // dataset cache ("" regenerates)
	SpillDir string // scratch space for hybrid storage and RStream tables
	Quick    bool   // reduced grids for CI
}

// Result is one rendered experiment artifact.
type Result struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Render formats a result as an aligned text table.
func (r Result) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s — %s ==\n", r.ID, r.Title)
	widths := make([]int, len(r.Header))
	rows := append([][]string{r.Header}, r.Rows...)
	for _, row := range rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	for ri, row := range rows {
		for i, c := range row {
			fmt.Fprintf(&sb, "%-*s  ", widths[i], c)
		}
		sb.WriteByte('\n')
		if ri == 0 {
			for _, w := range widths {
				sb.WriteString(strings.Repeat("-", w) + "  ")
			}
			sb.WriteByte('\n')
		}
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}

// Failures lists the cells of r whose run failed, one "row/column: error"
// line each. The paper's holes ('-', '/', 'skip') are not failures.
func (r Result) Failures() []string {
	var out []string
	for _, row := range r.Rows {
		for i, c := range row {
			if strings.HasPrefix(c, errPrefix) {
				col := fmt.Sprint(i)
				if i < len(r.Header) {
					col = r.Header[i]
				}
				out = append(out, fmt.Sprintf("%s/%s: %s", row[0], col, c))
			}
		}
	}
	return out
}

// Experiments lists the experiment ids, one per table or figure of the
// paper's evaluation, in paper order.
func Experiments() []string {
	return []string{"table2", "table3", "fig11", "fig12", "fig13", "fig14", "table4", "fig16"}
}

// Run executes one experiment by id.
func Run(id string, cfg RunConfig) ([]Result, error) {
	switch id {
	case "table2":
		return table2(cfg)
	case "table3":
		return table3(cfg)
	case "fig11":
		return fig11(cfg)
	case "fig12":
		return fig12(cfg)
	case "fig13":
		return fig13(cfg)
	case "fig14":
		return fig14(cfg)
	case "table4":
		return table4(cfg)
	case "fig16":
		return fig16(cfg)
	default:
		return nil, fmt.Errorf("bench: unknown experiment %q (have %s)", id, strings.Join(Experiments(), ", "))
	}
}

// measured is one timed, memory-tracked run.
type measured struct {
	seconds float64
	peak    int64
	skipped string // non-empty = not run, with reason (paper used '-' and '/')
}

func (m measured) timeCell() string {
	if m.skipped != "" {
		return m.skipped
	}
	return fmt.Sprintf("%.2f", m.seconds)
}

// memCell prints the tracked peak in KB (KiB): small runs' peaks are a few
// KB, which an MB cell would round to 0.0. A run that tracked nothing prints
// 0, so a zero is never a rounded-down peak.
func (m measured) memCell() string {
	if m.skipped != "" {
		return m.skipped
	}
	if m.peak == 0 {
		return "0"
	}
	return fmt.Sprintf("%.1f", float64(m.peak)/(1<<10))
}

// errPrefix marks the cell of a run that failed; Failures reports them.
const errPrefix = "err:"

func timed(fn func(tr *memtrack.Tracker) error) measured {
	tr := memtrack.New()
	start := time.Now()
	if err := fn(tr); err != nil {
		return measured{skipped: errPrefix + err.Error()}
	}
	return measured{seconds: time.Since(start).Seconds(), peak: tr.Peak()}
}

// system identifies one of the three compared engines.
type system int

const (
	sysKaleido system = iota
	sysArabesque
	sysRStream
)

var sysNames = []string{"KA", "AR", "RS"}

// workload is one (application, option) cell of Table 2.
type workload struct {
	app    string // "3-FSM", "Motif", "Clique", "TC"
	option uint64 // support or k (0 for TC)
}

func (w workload) String() string {
	if w.app == "TC" {
		return "TC"
	}
	return fmt.Sprintf("%s-%d", w.app, w.option)
}

// runCell executes one workload on one system over one dataset.
func runCell(g *graph.Graph, sys system, w workload, cfg RunConfig) measured {
	threads := cfg.Threads
	return timed(func(tr *memtrack.Tracker) error {
		switch sys {
		case sysKaleido:
			opt := &run.Env{Threads: threads, Tracker: tr}
			switch w.app {
			case "3-FSM":
				_, _, err := apps.FSM(bgCtx, g, 3, w.option, opt)
				return err
			case "Motif":
				_, err := apps.MotifCount(bgCtx, g, int(w.option), opt)
				return err
			case "Clique":
				_, err := apps.CliqueCount(bgCtx, g, int(w.option), opt)
				return err
			default:
				_, err := apps.TriangleCount(bgCtx, g, opt)
				return err
			}
		case sysArabesque:
			opt := arabesque.Options{Threads: threads, Tracker: tr}
			switch w.app {
			case "3-FSM":
				_, err := arabesque.FSM(g, 3, w.option, opt)
				return err
			case "Motif":
				_, err := arabesque.MotifCount(g, int(w.option), opt)
				return err
			case "Clique":
				_, err := arabesque.CliqueCount(g, int(w.option), opt)
				return err
			default:
				_, err := arabesque.TriangleCount(g, opt)
				return err
			}
		default:
			opt := rstream.Options{Threads: threads, Tracker: tr, Dir: ""}
			switch w.app {
			case "3-FSM":
				_, _, err := rstream.FSM(g, 3, w.option, opt)
				return err
			case "Motif":
				_, _, err := rstream.MotifCount(g, int(w.option), opt)
				return err
			case "Clique":
				_, _, err := rstream.CliqueCount(g, int(w.option), opt)
				return err
			default:
				_, _, err := rstream.TriangleCount(g, opt)
				return err
			}
		}
	})
}

// table2Grid declares which cells run at which dataset scale. The paper's
// own grid has '-' (out of memory) and '/' (out of SSD) holes; ours
// additionally skips cells whose baseline cost explodes at CI scale,
// mirroring the paper's holes where they existed.
func table2Skip(ds string, sys system, w workload, quick bool) string {
	// The paper: RStream ran out of memory on all Youtube workloads but TC.
	if sys == sysRStream && ds == "youtube" && w.app != "TC" {
		return "-"
	}
	// The paper: RStream 4-Motif exceeded the 480 GB SSD on MiCo/Patent.
	if sys == sysRStream && w.app == "Motif" && w.option >= 4 {
		return "/"
	}
	if quick {
		// Reduced grid: baselines only on the two smaller graphs, and the
		// 4-Motif stress test only where it completes in seconds.
		if sys != sysKaleido && (ds == "patent" || ds == "youtube") && w.app != "TC" && !(w.app == "Clique" && w.option == 3) {
			return "skip"
		}
		if w.app == "Motif" && w.option == 4 && ds != "citeseer" && ds != "mico" {
			return "skip"
		}
		if w.app == "Motif" && w.option == 4 && ds == "mico" && sys != sysKaleido {
			return "skip"
		}
	}
	return ""
}

func table2Workloads(quick bool) []workload {
	if quick {
		return []workload{
			{"3-FSM", 300}, {"3-FSM", 5000},
			{"Motif", 3}, {"Motif", 4},
			{"Clique", 3}, {"Clique", 4},
			{"TC", 0},
		}
	}
	return []workload{
		{"3-FSM", 300}, {"3-FSM", 500}, {"3-FSM", 1000}, {"3-FSM", 5000},
		{"Motif", 3}, {"Motif", 4},
		{"Clique", 3}, {"Clique", 4}, {"Clique", 5},
		{"TC", 0},
	}
}

func loadDataset(name string, cfg RunConfig) (*graph.Graph, error) {
	d, err := dataset.ByName(name)
	if err != nil {
		return nil, err
	}
	return dataset.Load(d, cfg.CacheDir)
}

// table2 reproduces Table 2 (running time, seconds) and the Fig. 10 memory
// reduction factors of all three systems over the four datasets.
func table2(cfg RunConfig) ([]Result, error) {
	datasets := []string{"citeseer", "mico", "patent", "youtube"}
	workloads := table2Workloads(cfg.Quick)

	timeRes := Result{
		ID:     "Table 2",
		Title:  "running time (s) — Kaleido vs Arabesque-like vs RStream-like",
		Header: []string{"App"},
	}
	memRes := Result{
		ID:     "Fig. 10",
		Title:  "memory reduction factor of Kaleido (×, higher = Kaleido smaller)",
		Header: []string{"App"},
	}
	for _, ds := range datasets {
		for _, s := range sysNames {
			timeRes.Header = append(timeRes.Header, ds[:2]+"/"+s)
		}
		memRes.Header = append(memRes.Header, ds[:2]+"/AR", ds[:2]+"/RS")
	}

	type cellKey struct {
		ds  string
		sys system
		w   string
	}
	cells := map[cellKey]measured{}
	for _, ds := range datasets {
		g, err := loadDataset(ds, cfg)
		if err != nil {
			return nil, err
		}
		for _, w := range workloads {
			for sys := sysKaleido; sys <= sysRStream; sys++ {
				if reason := table2Skip(ds, sys, w, cfg.Quick); reason != "" {
					cells[cellKey{ds, sys, w.String()}] = measured{skipped: reason}
					continue
				}
				cells[cellKey{ds, sys, w.String()}] = runCell(g, sys, w, cfg)
			}
		}
	}
	var speedAR, speedRS, memAR, memRS []float64
	for _, w := range workloads {
		trow := []string{w.String()}
		mrow := []string{w.String()}
		for _, ds := range datasets {
			ka := cells[cellKey{ds, sysKaleido, w.String()}]
			ar := cells[cellKey{ds, sysArabesque, w.String()}]
			rs := cells[cellKey{ds, sysRStream, w.String()}]
			trow = append(trow, ka.timeCell(), ar.timeCell(), rs.timeCell())
			mrow = append(mrow, ratioCell(ar.peak, ka.peak, ar.skipped != "" || ka.skipped != ""),
				ratioCell(rs.peak, ka.peak, rs.skipped != "" || ka.skipped != ""))
			if ds != "citeseer" { // paper's GeoMean excludes the tiny CiteSeer
				if ka.skipped == "" && ar.skipped == "" && ka.seconds > 0 {
					speedAR = append(speedAR, ar.seconds/ka.seconds)
					if ka.peak > 0 {
						memAR = append(memAR, float64(ar.peak)/float64(ka.peak))
					}
				}
				if ka.skipped == "" && rs.skipped == "" && ka.seconds > 0 {
					speedRS = append(speedRS, rs.seconds/ka.seconds)
					if ka.peak > 0 {
						memRS = append(memRS, float64(rs.peak)/float64(ka.peak))
					}
				}
			}
		}
		timeRes.Rows = append(timeRes.Rows, trow)
		memRes.Rows = append(memRes.Rows, mrow)
	}
	timeRes.Notes = append(timeRes.Notes,
		fmt.Sprintf("GeoMean speedup vs Arabesque-like: %.1f× (paper: 12.3× incl. JVM/Giraph overhead)", geomean(speedAR)),
		fmt.Sprintf("GeoMean speedup vs RStream-like: %.1f× (paper: 40.0×)", geomean(speedRS)),
		"'-' = baseline exceeded memory in the paper; '/' = exceeded SSD; 'skip' = reduced CI grid")
	memRes.Notes = append(memRes.Notes,
		fmt.Sprintf("GeoMean memory reduction: %.1f× vs Arabesque-like (paper 7.2×), %.1f× vs RStream-like (paper 9.9×)",
			geomean(memAR), geomean(memRS)))
	return []Result{timeRes, memRes}, nil
}

// table3 reproduces Table 3: memory consumption over CiteSeer, in KB (the
// paper's MB would round the 3-FSM rows to 0).
func table3(cfg RunConfig) ([]Result, error) {
	g, err := loadDataset("citeseer", cfg)
	if err != nil {
		return nil, err
	}
	res := Result{
		ID:     "Table 3",
		Title:  "memory consumption (KB) over citeseer-like",
		Header: []string{"App", "Kaleido", "AR-like", "RS-like"},
	}
	var below []string
	for _, w := range table2Workloads(cfg.Quick) {
		row := []string{w.String()}
		var m [sysRStream + 1]measured
		for sys := sysKaleido; sys <= sysRStream; sys++ {
			m[sys] = runCell(g, sys, w, cfg)
			row = append(row, m[sys].memCell())
		}
		res.Rows = append(res.Rows, row)
		if belowBoth(m[sysKaleido], m[sysArabesque], m[sysRStream]) {
			below = append(below, w.String())
		}
	}
	ordered := "none"
	if len(below) > 0 {
		ordered = strings.Join(below, ", ")
	}
	res.Notes = append(res.Notes,
		"tracked data-structure peaks (CSE / ODAG / tuple tables; pattern maps and MNI domains are untracked), not process RSS;",
		"0 = the run tracked no bytes (3-FSM-5000: no edge is frequent, so no level is stored);",
		"the paper's Arabesque column is dominated by ~1.8 GB of JVM+Giraph baseline not reproduced here;",
		fmt.Sprintf("Kaleido below both comparators, the paper's Fig. 10 ordering, in %d of %d rows: %s",
			len(below), len(res.Rows), ordered))
	return []Result{res}, nil
}

// belowBoth reports whether run k tracked a peak below both comparators'
// runs a and r, all three having run.
func belowBoth(k, a, r measured) bool {
	if k.skipped != "" || a.skipped != "" || r.skipped != "" {
		return false
	}
	return k.peak < a.peak && k.peak < r.peak
}

func ratioCell(num, den int64, skipped bool) string {
	if skipped || den == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1fx", float64(num)/float64(den))
}

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	logSum := 0.0
	for _, x := range xs {
		logSum += math.Log(x)
	}
	return math.Exp(logSum / float64(len(xs)))
}
