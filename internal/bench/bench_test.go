package bench

import (
	"fmt"
	"strings"
	"testing"
)

func TestExperimentsListed(t *testing.T) {
	want := "table2 table3 fig11 fig12 fig13 fig14 table4 fig16"
	if got := strings.Join(Experiments(), " "); got != want {
		t.Fatalf("experiments = %s, want %s", got, want)
	}
	for _, id := range []string{"nope", "iso"} {
		if _, err := Run(id, RunConfig{}); err == nil {
			t.Fatalf("unknown experiment %q accepted", id)
		}
	}
}

func TestRenderTable(t *testing.T) {
	r := Result{
		ID:     "T",
		Title:  "demo",
		Header: []string{"a", "bb"},
		Rows:   [][]string{{"1", "2"}, {"333", "4"}},
		Notes:  []string{"hello"},
	}
	out := r.Render()
	for _, want := range []string{"== T — demo ==", "333", "note: hello"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestResultFailures(t *testing.T) {
	r := Result{
		Header: []string{"App", "KA", "AR", "RS"},
		Rows: [][]string{
			{"TC", "0.10", "-", "/"},
			{"Motif-4", "skip", "err:boom", "0.30"},
		},
	}
	f := r.Failures()
	if len(f) != 1 || f[0] != "Motif-4/AR: err:boom" {
		t.Fatalf("failures = %q, want the one err cell", f)
	}
}

func TestGeomean(t *testing.T) {
	if g := geomean([]float64{2, 8}); g < 3.99 || g > 4.01 {
		t.Fatalf("geomean = %f, want 4", g)
	}
	if geomean(nil) != 0 {
		t.Fatal("empty geomean not 0")
	}
}

// TestTable3Smoke runs the cheapest real experiment end to end.
func TestTable3Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment run in -short mode")
	}
	res, err := Run("table3", RunConfig{Threads: 4, Quick: true, CacheDir: t.TempDir(), SpillDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || len(res[0].Rows) == 0 {
		t.Fatalf("results = %+v", res)
	}
	if f := res[0].Failures(); len(f) > 0 {
		t.Fatalf("failed runs: %v", f)
	}
}

// TestTable4Smoke runs Table 4's quick row (4-FSM on patent, well under a
// second) and checks that its hybrid run spilled: a budget the in-memory run's levels fit under would make the
// hybrid column a second in-memory run. Which parts spill depends on the
// schedule, so no mem/disk split is asserted.
func TestTable4Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment run in -short mode")
	}
	res, err := Run("table4", RunConfig{Threads: 2, Quick: true, CacheDir: t.TempDir(), SpillDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || len(res[0].Rows) != 1 {
		t.Fatalf("results = %+v", res)
	}
	if f := res[0].Failures(); len(f) > 0 {
		t.Fatalf("failed runs: %v", f)
	}
	row := res[0].Rows[0]
	var disk, parts int
	if _, err := fmt.Sscanf(row[5], "%d/%d", &disk, &parts); err != nil {
		t.Fatalf("disk parts cell %q: %v", row[5], err)
	}
	if disk < 1 || disk > parts || row[6] == "no spill" {
		t.Fatalf("hybrid run spilled %d of %d parts (row %q)", disk, parts, row)
	}
}
