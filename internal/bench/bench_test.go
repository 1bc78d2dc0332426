package bench

import (
	"strings"
	"testing"
)

func TestExperimentsListed(t *testing.T) {
	ids := Experiments()
	if len(ids) != 13 {
		t.Fatalf("experiments = %v", ids)
	}
	if _, err := Run("nope", RunConfig{}); err == nil {
		t.Fatal("unknown experiment accepted")
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

func TestGeomean(t *testing.T) {
	if g := geomean([]float64{2, 8}); g < 3.99 || g > 4.01 {
		t.Fatalf("geomean = %f, want 4", g)
	}
	if geomean(nil) != 0 {
		t.Fatal("empty geomean not 0")
	}
}

// TestFaultsSmoke runs the fault-injection campaign end to end at -quick
// scale: transient faults must be absorbed with identical counts, and the two
// hard faults must dispatch through the right sentinel.
func TestFaultsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment run in -short mode")
	}
	res, err := Run("faults", RunConfig{Threads: 4, Quick: true, CacheDir: t.TempDir(), SpillDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("results = %+v", res)
	}
	for _, row := range res[0].Rows {
		if got := row[len(row)-1]; got != "yes" {
			t.Fatalf("regime %s not identical under transient faults: %v", row[0], row)
		}
	}
	for _, row := range res[1].Rows {
		if got := row[2]; got != "true" {
			t.Fatalf("hard fault %s missed its sentinel: %v", row[0], row)
		}
	}
}

// TestServiceSmoke runs the mining-as-a-service experiment at -quick scale:
// every served job must match the direct Engine run's count, and the shared
// budget must hold across the burst.
func TestServiceSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment run in -short mode")
	}
	res, err := Run("service", RunConfig{Threads: 4, Quick: true, SpillDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || len(res[0].Rows) != 2 {
		t.Fatalf("results = %+v", res)
	}
	for _, row := range res[0].Rows {
		if row[len(row)-1] != "true" {
			t.Fatalf("served counts diverged from direct runs: %v", row)
		}
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
	for _, row := range res[0].Rows {
		for i, cell := range row {
			if strings.HasPrefix(cell, "err:") {
				t.Fatalf("row %v column %d failed: %s", row[0], i, cell)
			}
		}
	}
}
