// Benchmarks regenerating the paper's tables and figures at go-test scale:
// one benchmark family per artifact of §6, runnable with
//
//	go test -bench=. -benchmem
//
// Each family uses the citeseer-like dataset (full scale) or a small seeded
// synthetic so individual iterations stay sub-second; the full scaled
// experiments live in cmd/kbench.
package kaleido

import (
	"context"
	"fmt"
	"os"
	"testing"

	"kaleido/internal/apps"
	"kaleido/internal/arabesque"
	"kaleido/internal/dataset"
	"kaleido/internal/graph"
	"kaleido/internal/memtrack"
	"kaleido/internal/rstream"
	"kaleido/internal/run"
)

var bgCtx = context.Background()

var benchGraphs = map[string]*graph.Graph{}

func benchGraph(b *testing.B, name string) *graph.Graph {
	b.Helper()
	if g, ok := benchGraphs[name]; ok {
		return g
	}
	d, err := dataset.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	g, err := dataset.Generate(d)
	if err != nil {
		b.Fatal(err)
	}
	benchGraphs[name] = g
	return g
}

// BenchmarkTable2 regenerates Table 2 cells: each sub-benchmark is one
// (application, system) pair over the citeseer-like graph.
func BenchmarkTable2(b *testing.B) {
	g := benchGraph(b, "citeseer")
	type cell struct {
		name string
		run  func() error
	}
	cells := []cell{
		{"3FSM300/Kaleido", func() error { _, _, err := apps.FSM(bgCtx, g, 3, 300, &run.Env{}); return err }},
		{"3FSM300/Arabesque", func() error { _, err := arabesque.FSM(g, 3, 300, arabesque.Options{Threads: 4}); return err }},
		{"3FSM300/RStream", func() error { _, _, err := rstream.FSM(g, 3, 300, rstream.Options{Threads: 4}); return err }},
		{"Motif3/Kaleido", func() error { _, err := apps.MotifCount(bgCtx, g, 3, &run.Env{}); return err }},
		{"Motif3/Arabesque", func() error { _, err := arabesque.MotifCount(g, 3, arabesque.Options{Threads: 4}); return err }},
		{"Motif3/RStream", func() error { _, _, err := rstream.MotifCount(g, 3, rstream.Options{Threads: 4}); return err }},
		{"Clique4/Kaleido", func() error { _, err := apps.CliqueCount(bgCtx, g, 4, &run.Env{}); return err }},
		{"Clique4/Arabesque", func() error { _, err := arabesque.CliqueCount(g, 4, arabesque.Options{Threads: 4}); return err }},
		{"Clique4/RStream", func() error { _, _, err := rstream.CliqueCount(g, 4, rstream.Options{Threads: 4}); return err }},
		{"TC/Kaleido", func() error { _, err := apps.TriangleCount(bgCtx, g, &run.Env{}); return err }},
		{"TC/Arabesque", func() error { _, err := arabesque.TriangleCount(g, arabesque.Options{Threads: 4}); return err }},
		{"TC/RStream", func() error { _, _, err := rstream.TriangleCount(g, rstream.Options{Threads: 4}); return err }},
	}
	for _, c := range cells {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := c.run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable3 regenerates Table 3: tracked peak memory per system,
// reported as the peak-MB custom metric.
func BenchmarkTable3(b *testing.B) {
	g := benchGraph(b, "citeseer")
	tracked := func(b *testing.B, fn func(tr *memtrack.Tracker) error) {
		var peak int64
		for i := 0; i < b.N; i++ {
			tr := memtrack.New()
			if err := fn(tr); err != nil {
				b.Fatal(err)
			}
			peak = tr.Peak()
		}
		b.ReportMetric(float64(peak)/(1<<20), "peak-MB")
	}
	b.Run("Motif3/Kaleido", func(b *testing.B) {
		tracked(b, func(tr *memtrack.Tracker) error {
			_, err := apps.MotifCount(bgCtx, g, 3, &run.Env{Tracker: tr})
			return err
		})
	})
	b.Run("Motif3/Arabesque", func(b *testing.B) {
		tracked(b, func(tr *memtrack.Tracker) error {
			_, err := arabesque.MotifCount(g, 3, arabesque.Options{Threads: 4, Tracker: tr})
			return err
		})
	})
	b.Run("Motif3/RStream", func(b *testing.B) {
		tracked(b, func(tr *memtrack.Tracker) error {
			_, _, err := rstream.MotifCount(g, 3, rstream.Options{Threads: 4, Tracker: tr})
			return err
		})
	})
}

// BenchmarkFig11FSMSupportSweep regenerates Fig. 11's support axis: 3-FSM
// run time across supports (non-monotonic by design, §6.2).
func BenchmarkFig11FSMSupportSweep(b *testing.B) {
	g := benchGraph(b, "mico")
	for _, support := range []uint64{10, 100, 1000, 10000} {
		b.Run(fmt.Sprintf("support=%d", support), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := apps.FSM(bgCtx, g, 3, support, &run.Env{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig12Iso regenerates Fig. 12: the eigenvalue hash vs the
// bliss-like canonical labeler inside whole applications.
func BenchmarkFig12Iso(b *testing.B) {
	g := benchGraph(b, "citeseer")
	for _, algo := range []struct {
		name string
		iso  run.IsoAlgo
	}{{"Eigen", run.IsoEigen}, {"Bliss", run.IsoBliss}, {"EigenExact", run.IsoEigenExact}} {
		b.Run("4-Motif/"+algo.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := apps.MotifCount(bgCtx, g, 4, &run.Env{Iso: algo.iso}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("4-FSM/"+algo.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := apps.FSM(bgCtx, g, 4, 10, &run.Env{Iso: algo.iso}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig13Labels regenerates Fig. 13: FSM sensitivity to the label
// count (7 coarse vs 37 fine labels) per isomorphism backend.
func BenchmarkFig13Labels(b *testing.B) {
	g37 := benchGraph(b, "patent")
	g7, err := dataset.CoarsenPatentLabels(g37)
	if err != nil {
		b.Fatal(err)
	}
	for _, v := range []struct {
		name string
		g    *graph.Graph
	}{{"PA-7", g7}, {"PA-37", g37}} {
		for _, algo := range []struct {
			name string
			iso  run.IsoAlgo
		}{{"Eigen", run.IsoEigen}, {"Bliss", run.IsoBliss}} {
			b.Run(v.name+"/"+algo.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, _, err := apps.FSM(bgCtx, v.g, 3, 300, &run.Env{Iso: algo.iso}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFig14Scalability regenerates Fig. 14: thread scaling of the three
// application classes.
func BenchmarkFig14Scalability(b *testing.B) {
	g := benchGraph(b, "patent")
	for _, threads := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("3-Motif/threads=%d", threads), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := apps.MotifCount(bgCtx, g, 3, &run.Env{Threads: threads}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("3-FSM-5000/threads=%d", threads), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := apps.FSM(bgCtx, g, 3, 5000, &run.Env{Threads: threads}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("5-Clique/threads=%d", threads), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := apps.CliqueCount(bgCtx, g, 5, &run.Env{Threads: threads}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable4Hybrid regenerates Table 4: in-memory vs hybrid storage on
// the same workload.
func BenchmarkTable4Hybrid(b *testing.B) {
	g := benchGraph(b, "mico")
	b.Run("4-Motif/InMemory", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := apps.MotifCount(bgCtx, g, 4, &run.Env{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("4-Motif/Hybrid", func(b *testing.B) {
		dir := b.TempDir()
		for i := 0; i < b.N; i++ {
			if _, err := apps.MotifCount(bgCtx, g, 4, &run.Env{
				MemoryBudget: 1, SpillDir: dir,
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFig16MemoryBudget regenerates Fig. 15/16: run time and I/O as the
// memory budget shrinks.
func BenchmarkFig16MemoryBudget(b *testing.B) {
	g := benchGraph(b, "mico")
	for _, budgetMB := range []int64{1, 4, 16} {
		b.Run(fmt.Sprintf("budget=%dMB", budgetMB), func(b *testing.B) {
			dir := b.TempDir()
			var read, written int64
			for i := 0; i < b.N; i++ {
				tr := memtrack.New()
				if _, err := apps.MotifCount(bgCtx, g, 4, &run.Env{
					MemoryBudget: budgetMB << 20, SpillDir: dir, Tracker: tr,
				}); err != nil {
					b.Fatal(err)
				}
				read, written = tr.IOTotals()
			}
			b.ReportMetric(float64(read)/(1<<20), "read-MB")
			b.ReportMetric(float64(written)/(1<<20), "write-MB")
		})
	}
}

func TestMain(m *testing.M) {
	os.Exit(m.Run())
}
