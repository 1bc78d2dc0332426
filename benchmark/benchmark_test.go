package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// binDir holds the benchmark and kaleidod binaries the smoke test runs,
// built once by TestMain.
var binDir string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "kaleido-benchmark-test-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	binDir = dir
	for bin, pkg := range map[string]string{"benchmark": ".", "kaleidod": "kaleido/cmd/kaleidod"} {
		if out, err := exec.Command("go", "build", "-o", filepath.Join(dir, bin), pkg).CombinedOutput(); err != nil {
			fmt.Fprintf(os.Stderr, "go build %s: %v\n%s", pkg, err, out)
			os.RemoveAll(dir)
			os.Exit(1)
		}
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// TestSmoke runs all seven workloads at 1/8 scale, one short stretch of jobs
// each, both passes, the way the driver invokes the benchmark.
func TestSmoke(t *testing.T) {
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for _, w := range workloads {
		if !nameRE.MatchString(w.Name) {
			t.Errorf("workload name %q", w.Name)
		}
		for trace, defs := range [][]metricDef{endToEnd, perLayer} {
			cmd := exec.Command(filepath.Join(binDir, "benchmark"),
				"--workload", w.Name, "--seed", "7", "--seconds", "0.05", "--trace", fmt.Sprint(trace),
				"--scale", "8", "--out", filepath.Join(binDir, "out"), "--kaleidod", filepath.Join(binDir, "kaleidod"))
			var stderr strings.Builder
			cmd.Stderr = &stderr
			stdout, err := cmd.Output()
			if err != nil {
				t.Fatalf("%s trace=%d: %v\n%s", w.Name, trace, err, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
			var doc runDoc
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &doc); err != nil {
				t.Fatalf("%s trace=%d: result line: %v", w.Name, trace, err)
			}
			if !doc.Correct || doc.Attempted < 1 || doc.Failed != 0 {
				t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d\n%s", w.Name, trace, doc.Correct, doc.Attempted, doc.Failed, stderr.String())
			}
			if len(doc.Metrics) != len(defs) {
				t.Errorf("%s trace=%d: %d metrics, want %d", w.Name, trace, len(doc.Metrics), len(defs))
			}
			for _, def := range defs {
				m, ok := doc.Metrics[def.Name]
				if !ok {
					t.Errorf("%s trace=%d: metric %s missing", w.Name, trace, def.Name)
				}
				if m.Unit != def.Unit || math.IsNaN(m.Value) {
					t.Errorf("%s trace=%d: metric %s = %v %q, want unit %q", w.Name, trace, def.Name, m.Value, m.Unit, def.Unit)
				}
				if !nameRE.MatchString(def.Name) {
					t.Errorf("metric name %q", def.Name)
				}
			}
			again, err := json.Marshal(doc)
			if err != nil {
				t.Fatal(err)
			}
			var back runDoc
			if err := json.Unmarshal(again, &back); err != nil || !reflect.DeepEqual(doc, back) {
				t.Errorf("%s trace=%d: result does not round-trip through encoding/json: %v", w.Name, trace, err)
			}
			if trace == 1 {
				if _, err := os.Stat(filepath.Join(binDir, "out", "trace-"+w.Name+".json")); err != nil {
					t.Errorf("%s: no span file: %v", w.Name, err)
				}
			}
		}
	}
	if left, _ := filepath.Glob(filepath.Join(binDir, "out", "run-*")); len(left) > 0 {
		t.Errorf("scratch directories left behind: %v", left)
	}
}

// TestManifest: BENCHMARK.json at the repo root is the program's own tables.
func TestManifest(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var onDisk, own any
	if err := json.Unmarshal(data, &onDisk); err != nil {
		t.Fatal(err)
	}
	ownData, err := json.Marshal(buildManifest())
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(ownData, &own); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(onDisk, own) {
		t.Errorf("BENCHMARK.json differs from the program's tables; regenerate it with: bash benchmark/run.sh --manifest > BENCHMARK.json")
	}
	for _, w := range workloads {
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.Name)
		}
	}
}

// TestCompileSurface: later PRs rewrite the internal packages and may not
// edit the benchmark, so the benchmark may import only the public package.
func TestCompileSurface(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	banned := "kaleido/" + "internal"
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(string(data), banned) {
			t.Errorf("%s mentions %s", f, banned)
		}
	}
}

// TestOracles checks the reference counters on graphs counted by hand.
func TestOracles(t *testing.T) {
	list := func(n int, edges ...[2]uint32) adjacency {
		return (&edgeList{N: n, Edges: edges}).adjacency()
	}
	k4 := list(4, [2]uint32{0, 1}, [2]uint32{0, 2}, [2]uint32{0, 3}, [2]uint32{1, 2}, [2]uint32{1, 3}, [2]uint32{2, 3})
	if tri, c4 := k4.cliqueCounts(); tri != 4 || c4 != 1 || k4.connected3(tri) != 4 {
		t.Errorf("K4: %d triangles, %d 4-cliques, %d connected triples", tri, c4, k4.connected3(tri))
	}
	if d := (counts{"l4": 1, "shape.clique": 1}).diff(k4.motif4()); d != "" {
		t.Errorf("K4 motifs: %s", d)
	}
	cycle5 := list(5, [2]uint32{0, 1}, [2]uint32{1, 2}, [2]uint32{2, 3}, [2]uint32{3, 4}, [2]uint32{0, 4})
	if d := (counts{"l4": 5, "shape.path": 5}).diff(cycle5.motif4()); d != "" {
		t.Errorf("C5 motifs: %s", d)
	}
	// A triangle 0-1-2 with a tail 2-3 and a star centre 3 with leaves 4, 5.
	mixed := list(6, [2]uint32{0, 1}, [2]uint32{1, 2}, [2]uint32{0, 2}, [2]uint32{2, 3}, [2]uint32{3, 4}, [2]uint32{3, 5})
	want := counts{"l4": 6, "shape.tailed-triangle": 1, "shape.star": 1, "shape.path": 4}
	if d := want.diff(mixed.motif4()); d != "" {
		t.Errorf("mixed motifs: %s (got %v)", d, mixed.motif4())
	}
}

// TestQuartileSpread pins the quartile rule to Python's
// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25].
func TestQuartileSpread(t *testing.T) {
	v := []float64{3, 1, 2, 10, 9, 8, 4, 5, 6, 7}
	if got := quartileSpread(v); math.Abs(got-1) > 1e-12 {
		t.Errorf("quartileSpread = %v, want 1", got)
	}
}
