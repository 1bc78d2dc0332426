package graph

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

// paperGraph builds the 5-vertex example graph of Fig. 3 in the paper:
// vertices 1..5 remapped to 0..4, edges {1-2,1-5,2-5,2-3,3-4,3-5,4-5}.
func paperGraph(t testing.TB) *Graph {
	t.Helper()
	b := NewBuilder(5)
	for _, e := range [][2]uint32{{0, 1}, {0, 4}, {1, 4}, {1, 2}, {2, 3}, {2, 4}, {3, 4}} {
		b.AddEdge(e[0], e[1])
	}
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return g
}

func TestPaperGraphBasics(t *testing.T) {
	g := paperGraph(t)
	if g.N() != 5 || g.M() != 7 {
		t.Fatalf("got N=%d M=%d, want 5, 7", g.N(), g.M())
	}
	wantDeg := []int{2, 3, 3, 2, 4}
	for v, d := range wantDeg {
		if g.Degree(uint32(v)) != d {
			t.Errorf("Degree(%d) = %d, want %d", v, g.Degree(uint32(v)), d)
		}
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Error("edge {0,1} missing")
	}
	if g.HasEdge(0, 2) {
		t.Error("spurious edge {0,2}")
	}
	if g.HasEdge(3, 3) {
		t.Error("self loop reported")
	}
}

func TestBuilderDeduplicates(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 0)
	b.AddEdge(0, 1)
	b.AddEdge(2, 2) // self loop dropped
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != 1 {
		t.Fatalf("M = %d, want 1", g.M())
	}
}

func TestBuilderRejectsOutOfRange(t *testing.T) {
	b := NewBuilder(2)
	b.AddEdge(0, 5)
	if _, err := b.Build(); err == nil {
		t.Fatal("Build accepted out-of-range edge")
	}
}

func TestEdgeIDRoundTrip(t *testing.T) {
	g := paperGraph(t)
	for id, e := range g.Edges() {
		got, ok := g.EdgeID(e.U, e.V)
		if !ok || got != uint32(id) {
			t.Fatalf("EdgeID(%d,%d) = %d,%v, want %d", e.U, e.V, got, ok, id)
		}
		got, ok = g.EdgeID(e.V, e.U)
		if !ok || got != uint32(id) {
			t.Fatalf("EdgeID(%d,%d) = %d,%v, want %d", e.V, e.U, got, ok, id)
		}
	}
	if _, ok := g.EdgeID(0, 2); ok {
		t.Fatal("EdgeID reported non-edge")
	}
}

func TestIncidentEdgesMatchNeighbors(t *testing.T) {
	g := paperGraph(t)
	for v := uint32(0); v < uint32(g.N()); v++ {
		nb, ie := g.Neighbors(v), g.IncidentEdges(v)
		if len(nb) != len(ie) {
			t.Fatalf("vertex %d: %d neighbors, %d incident edges", v, len(nb), len(ie))
		}
		for i := range nb {
			e := g.EdgeAt(ie[i])
			if e.U != v && e.V != v {
				t.Fatalf("edge %d not incident to %d", ie[i], v)
			}
			other := e.U
			if other == v {
				other = e.V
			}
			if other != nb[i] {
				t.Fatalf("edge %d pairs %d with %d, neighbor list says %d", ie[i], v, other, nb[i])
			}
		}
	}
}

func randomGraph(rng *rand.Rand, n, m int) *Graph {
	b := NewBuilder(n)
	for i := 0; i < m; i++ {
		b.AddEdge(uint32(rng.Intn(n)), uint32(rng.Intn(n)))
	}
	for v := 0; v < n; v++ {
		b.SetLabel(uint32(v), Label(rng.Intn(5)))
	}
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

func TestRandomGraphInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(40)
		g := randomGraph(rng, n, rng.Intn(4*n))
		if err := g.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestBelowSplitsNeighbors(t *testing.T) {
	// Property: Below(v) followed by the neighbours above v is exactly N(v),
	// MaxBelow is the longest Below list (at most √(2m) once relabelled), and
	// Validate rejects a below count that does not split N(v) at v.
	rng := rand.New(rand.NewSource(5))
	isolated := 0
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(50)
		g := randomGraph(rng, n, rng.Intn(3*n))
		if trial%2 == 1 {
			var err error
			if g, err = Relabel(g); err != nil {
				t.Fatal(err)
			}
		}
		longest := 0
		for v := uint32(0); v < uint32(n); v++ {
			nb, below := g.Neighbors(v), g.Below(v)
			longest = max(longest, len(below))
			if len(nb) == 0 {
				isolated++
			}
			if v == 0 && len(below) != 0 {
				t.Fatalf("trial %d: Below(0) = %v", trial, below)
			}
			want := append([]uint32(nil), below...)
			for _, u := range nb {
				if u > v {
					want = append(want, u)
				}
			}
			if !slices.Equal(want, nb) || slices.ContainsFunc(below, func(u uint32) bool { return u >= v }) {
				t.Fatalf("trial %d: Below(%d) = %v does not split N(%d) = %v", trial, v, below, v, nb)
			}
		}
		if g.MaxBelow() != longest {
			t.Fatalf("trial %d: MaxBelow %d, longest Below list %d", trial, g.MaxBelow(), longest)
		}
		if g.Relabeled() && longest*longest > 2*g.M() {
			t.Fatalf("trial %d: relabelled MaxBelow %d exceeds √(2·%d)", trial, longest, g.M())
		}
		v := rng.Intn(n)
		g.spans[v].below++
		if err := g.Validate(); err == nil {
			t.Fatalf("trial %d: Validate accepted below[%d] off by one", trial, v)
		}
		g.spans[v].below--
	}
	if isolated == 0 {
		t.Fatal("degenerate: no isolated vertex")
	}
}

func TestHasEdgeMatchesNeighborScan(t *testing.T) {
	// Property: HasEdge agrees with a linear scan of the neighbor list.
	rng := rand.New(rand.NewSource(7))
	g := randomGraph(rng, 30, 90)
	f := func(u, v uint8) bool {
		a, b := uint32(u)%30, uint32(v)%30
		want := false
		for _, w := range g.Neighbors(a) {
			if w == b {
				want = true
			}
		}
		return g.HasEdge(a, b) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestReadEdgeList(t *testing.T) {
	in := `# a comment
% another comment
0 1
1 2
2 0
0 label=3
2 label=1
`
	g, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 || g.M() != 3 {
		t.Fatalf("N=%d M=%d, want 3, 3", g.N(), g.M())
	}
	if g.Label(0) != 3 || g.Label(2) != 1 || g.Label(1) != 0 {
		t.Fatalf("labels = %v", g.Labels())
	}
	if g.NumLabels() != 4 {
		t.Fatalf("NumLabels = %d, want 4", g.NumLabels())
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	for _, in := range []string{"0\n", "a b\n", "0 label=99999\n", "0 1 2\n"} {
		if _, err := ReadEdgeList(strings.NewReader(in)); err == nil {
			t.Errorf("ReadEdgeList(%q) succeeded, want error", in)
		}
	}
}

// FuzzReadEdgeList feeds arbitrary text to the edge-list parser. It must
// not panic, and a graph it accepts must agree with an independent scan of
// the same lines that numbers ids in first-seen order: one vertex per
// distinct id (edge and label lines alike), the last label given to each,
// no self loop, an edge for every edge line between two distinct ids, and
// no other edge.
func FuzzReadEdgeList(f *testing.F) {
	for _, s := range []string{
		"0 1\n1 2\n2 0\n0 label=3\n",
		"# c\n% c\n\n10 20\r\n20 10\n7 7\n7 label=1\n7 label=2",
		"18446744073709551615 0\n", "0 label=65535\n5 label=1\n",
		"0\n", "a b\n", "0 1 2\n", "0 label=99999\n",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) {
		g, err := ReadEdgeList(strings.NewReader(in))
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("ReadEdgeList returned an invalid graph: %v", err)
		}
		ids := map[uint64]uint32{}
		id := func(raw uint64) uint32 {
			v, ok := ids[raw]
			if !ok {
				v = uint32(len(ids))
				ids[raw] = v
			}
			return v
		}
		labels := map[uint32]Label{}
		pairs := map[Edge]bool{}
		for _, line := range strings.Split(in, "\n") {
			fields := strings.Fields(line)
			if len(fields) == 0 || fields[0][0] == '#' || fields[0][0] == '%' {
				continue
			}
			u, err := strconv.ParseUint(fields[0], 10, 64)
			if err != nil || len(fields) != 2 {
				t.Fatalf("accepted line %q", line)
			}
			if lv, ok := strings.CutPrefix(fields[1], "label="); ok {
				l, err := strconv.ParseUint(lv, 10, 16)
				if err != nil {
					t.Fatalf("accepted label line %q", line)
				}
				labels[id(u)] = Label(l)
				continue
			}
			v, err := strconv.ParseUint(fields[1], 10, 64)
			if err != nil {
				t.Fatalf("accepted edge line %q", line)
			}
			a, b := id(u), id(v)
			if a != b {
				pairs[Edge{min(a, b), max(a, b)}] = true
			}
		}
		if g.N() != len(ids) || g.M() != len(pairs) {
			t.Fatalf("N=%d M=%d, want %d distinct ids and %d distinct edges", g.N(), g.M(), len(ids), len(pairs))
		}
		for _, e := range g.Edges() {
			if e.U == e.V {
				t.Fatalf("self loop on %d", e.U)
			}
		}
		for e := range pairs {
			if !g.HasEdge(e.U, e.V) {
				t.Fatalf("edge line %v has no edge", e)
			}
		}
		for v := uint32(0); int(v) < g.N(); v++ {
			if g.Label(v) != labels[v] {
				t.Fatalf("vertex %d: label %d, want %d", v, g.Label(v), labels[v])
			}
		}
	})
}

func TestBinaryRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	g := randomGraph(rng, 64, 200)
	var buf bytes.Buffer
	if err := g.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.N() != g.N() || got.M() != g.M() || got.NumLabels() != g.NumLabels() {
		t.Fatalf("round trip changed shape: %d/%d/%d vs %d/%d/%d",
			got.N(), got.M(), got.NumLabels(), g.N(), g.M(), g.NumLabels())
	}
	for v := uint32(0); v < uint32(g.N()); v++ {
		if got.Label(v) != g.Label(v) {
			t.Fatalf("label of %d changed", v)
		}
		a, b := g.Neighbors(v), got.Neighbors(v)
		if len(a) != len(b) {
			t.Fatalf("degree of %d changed", v)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("neighbors of %d changed", v)
			}
		}
	}
}

func TestBinaryRejectsCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := randomGraph(rng, 16, 30)
	var buf bytes.Buffer
	if err := g.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	// Truncation at several points must error, not panic.
	for _, cut := range []int{0, 3, 10, len(full) / 2, len(full) - 1} {
		if _, err := ReadBinary(bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("ReadBinary of %d/%d bytes succeeded", cut, len(full))
		}
	}
	// Bad magic.
	bad := append([]byte(nil), full...)
	bad[0] ^= 0xff
	if _, err := ReadBinary(bytes.NewReader(bad)); err == nil {
		t.Error("ReadBinary accepted corrupt magic")
	}
}

// binaryHeader is a version-2 header for a graph of n vertices and m edges,
// with nothing after it.
func binaryHeader(n, m uint32) []byte {
	var b []byte
	for _, w := range []uint32{binaryMagic, 2, n, m, 1, 0} {
		b = binary.LittleEndian.AppendUint32(b, w)
	}
	return b
}

func TestReadBinaryAllocatesByBytesPresent(t *testing.T) {
	// A 24-byte file whose header claims 2^27 edges (1 GiB of them) must fail
	// having allocated about what it read, not what it claimed.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadBinary(bytes.NewReader(binaryHeader(4, 1<<27)))
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "truncated edges") {
		t.Fatalf("ReadBinary of an empty body returned %v, want truncated edges", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<20 {
		t.Fatalf("ReadBinary allocated %d MiB for a 24-byte file", got>>20)
	}
}

// FuzzReadBinary: any input either errors or yields a graph whose invariants
// hold.
func FuzzReadBinary(f *testing.F) {
	rng := rand.New(rand.NewSource(8))
	for _, g := range []*Graph{paperGraph(f), randomGraph(rng, 12, 30)} {
		for _, relabel := range []bool{false, true} {
			if relabel {
				var err error
				if g, err = Relabel(g); err != nil {
					f.Fatal(err)
				}
			}
			var buf bytes.Buffer
			if err := g.WriteBinary(&buf); err != nil {
				f.Fatal(err)
			}
			f.Add(buf.Bytes())
		}
	}
	f.Add(binaryHeader(4, 1<<27))
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadBinary(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("ReadBinary returned an invalid graph: %v", err)
		}
	})
}

func TestSaveLoadFile(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := randomGraph(rng, 32, 64)
	path := t.TempDir() + "/g.bin"
	if err := g.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.N() != g.N() || got.M() != g.M() {
		t.Fatalf("shape changed: %d/%d vs %d/%d", got.N(), got.M(), g.N(), g.M())
	}
}

func TestBytesAccounting(t *testing.T) {
	g := paperGraph(t)
	want := int64(5*16 + 14*4 + 14*4 + 7*8 + 5*2)
	if g.Bytes() != want {
		t.Fatalf("Bytes = %d, want %d", g.Bytes(), want)
	}
}
