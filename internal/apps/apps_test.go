package apps

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"kaleido/internal/gen"
	"kaleido/internal/graph"
	"kaleido/internal/iso"
	"kaleido/internal/pattern"
	"kaleido/internal/run"
)

var bgCtx = context.Background()

// paperGraph is the Fig. 3 running example (0-based ids).
func paperGraph(t testing.TB) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(5)
	for _, e := range [][2]uint32{{0, 1}, {0, 4}, {1, 4}, {1, 2}, {2, 3}, {2, 4}, {3, 4}} {
		b.AddEdge(e[0], e[1])
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func randomGraph(rng *rand.Rand, n, m, labels int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i < m; i++ {
		b.AddEdge(uint32(rng.Intn(n)), uint32(rng.Intn(n)))
	}
	for v := 0; v < n; v++ {
		b.SetLabel(uint32(v), graph.Label(rng.Intn(labels)))
	}
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

func TestTriangleCountPaperExample(t *testing.T) {
	g := paperGraph(t)
	got, err := TriangleCount(bgCtx, g, &run.Env{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got != 3 {
		t.Fatalf("triangles = %d, want 3 (paper §5.1)", got)
	}
}

// bruteTriangles counts triangles by triple enumeration.
func bruteTriangles(g *graph.Graph) uint64 {
	var n uint64
	for a := uint32(0); a < uint32(g.N()); a++ {
		for b := a + 1; b < uint32(g.N()); b++ {
			if !g.HasEdge(a, b) {
				continue
			}
			for c := b + 1; c < uint32(g.N()); c++ {
				if g.HasEdge(a, c) && g.HasEdge(b, c) {
					n++
				}
			}
		}
	}
	return n
}

func TestTriangleCountRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 15; trial++ {
		g := randomGraph(rng, 10+rng.Intn(30), rng.Intn(120), 3)
		got, err := TriangleCount(bgCtx, g, &run.Env{Threads: 1 + rng.Intn(4)})
		if err != nil {
			t.Fatal(err)
		}
		if want := bruteTriangles(g); got != want {
			t.Fatalf("trial %d: triangles = %d, want %d", trial, got, want)
		}
	}
}

// BenchmarkTriangleScaling counts the triangles of a degree-relabelled
// power-law graph — the id order every public graph gets, hubs first — at 1,
// 2 and 4 threads, one TriangleCount per op.
func BenchmarkTriangleScaling(b *testing.B) {
	g, err := gen.PowerLaw(gen.Config{N: 20000, M: 150000, Alpha: 2.6, Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	if g, err = graph.Relabel(g); err != nil {
		b.Fatal(err)
	}
	for _, threads := range []int{1, 2, 4} {
		env := &run.Env{Threads: threads}
		b.Run(fmt.Sprintf("threads%d", threads), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				n, err := TriangleCount(bgCtx, g, env)
				if err != nil {
					b.Fatal(err)
				}
				triangleSink = n
			}
		})
	}
}

// triangleSink keeps BenchmarkTriangleScaling's count live.
var triangleSink uint64

func TestCliqueCountPaperExample(t *testing.T) {
	g := paperGraph(t)
	got, err := CliqueCount(bgCtx, g, 3, &run.Env{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got != 3 {
		t.Fatalf("3-cliques = %d, want 3 (paper Fig. 9)", got)
	}
	got4, err := CliqueCount(bgCtx, g, 4, &run.Env{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got4 != 0 {
		t.Fatalf("4-cliques = %d, want 0", got4)
	}
}

func TestCliqueCountCompleteGraph(t *testing.T) {
	// K6 has C(6,k) k-cliques.
	b := graph.NewBuilder(6)
	for i := uint32(0); i < 6; i++ {
		for j := i + 1; j < 6; j++ {
			b.AddEdge(i, j)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]uint64{2: 15, 3: 20, 4: 15, 5: 6}
	for k, w := range want {
		got, err := CliqueCount(bgCtx, g, k, &run.Env{Threads: 3})
		if err != nil {
			t.Fatal(err)
		}
		if got != w {
			t.Fatalf("%d-cliques of K6 = %d, want %d", k, got, w)
		}
	}
	if _, err := CliqueCount(bgCtx, g, 1, &run.Env{}); err == nil {
		t.Fatal("k=1 accepted")
	}
}

func TestMotifCountPaperExample(t *testing.T) {
	// Paper §5.1: the Fig. 3 graph has 5 3-chains and 3 triangles.
	g := paperGraph(t)
	got, err := MotifCount(bgCtx, g, 3, &run.Env{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("3-motifs: %d patterns, want 2", len(got))
	}
	// Sorted by count descending: chain (5) before triangle (3).
	if got[0].Count != 5 || got[1].Count != 3 {
		t.Fatalf("counts = %d,%d, want 5,3", got[0].Count, got[1].Count)
	}
	if got[0].Pattern.Edges() != 2 || got[1].Pattern.Edges() != 3 {
		t.Fatalf("patterns have %d and %d edges, want 2 and 3", got[0].Pattern.Edges(), got[1].Pattern.Edges())
	}
}

// canonicalMemo returns iso.CanonicalBrute behind a memo keyed by the
// pattern exactly as filled (its encoding), so an oracle pays the k!
// permutations once per filled form, not once per subgraph. It is not safe
// for concurrent use.
func canonicalMemo() func(p *pattern.Pattern) string {
	memo := map[string]string{}
	return func(p *pattern.Pattern) string {
		key := p.Encode()
		c, ok := memo[key]
		if !ok {
			c = iso.CanonicalBrute(p)
			memo[key] = c
		}
		return c
	}
}

// bruteMotifs classifies all connected induced k-subgraphs by canonical form.
func bruteMotifs(t *testing.T, g *graph.Graph, k int) map[string]uint64 {
	t.Helper()
	out := map[string]uint64{}
	canonical := canonicalMemo()
	set := make([]uint32, 0, k)
	var rec func(start uint32)
	rec = func(start uint32) {
		if len(set) == k {
			var p pattern.Pattern
			if err := fillVertices(g, set, true, &p); err != nil {
				t.Fatal(err)
			}
			if p.Connected() {
				out[canonical(&p)]++
			}
			return
		}
		for v := start; v < uint32(g.N()); v++ {
			set = append(set, v)
			rec(v + 1)
			set = set[:len(set)-1]
		}
	}
	rec(0)
	return out
}

func TestMotifCountMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 10; trial++ {
		g := randomGraph(rng, 8+rng.Intn(8), rng.Intn(40), 1)
		for k := 3; k <= 4; k++ {
			got, err := MotifCount(bgCtx, g, k, &run.Env{Threads: 1 + rng.Intn(4)})
			if err != nil {
				t.Fatal(err)
			}
			want := bruteMotifs(t, g, k)
			if len(got) != len(want) {
				t.Fatalf("trial %d k=%d: %d motif classes, want %d", trial, k, len(got), len(want))
			}
			for _, pc := range got {
				key := iso.CanonicalBrute(pc.Pattern)
				if want[key] != pc.Count {
					t.Fatalf("trial %d k=%d: motif %v count %d, want %d", trial, k, pc.Pattern, pc.Count, want[key])
				}
			}
		}
	}
}

func TestMotifCountIsoBackendsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := randomGraph(rng, 20, 60, 1)
	var ref []PatternCount
	for _, algo := range []run.IsoAlgo{run.IsoEigen, run.IsoBliss, run.IsoEigenExact} {
		got, err := MotifCount(bgCtx, g, 4, &run.Env{Threads: 2, Iso: algo})
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = got
			continue
		}
		if len(got) != len(ref) {
			t.Fatalf("algo %d: %d classes vs %d", algo, len(got), len(ref))
		}
		for i := range got {
			if got[i].Count != ref[i].Count {
				t.Fatalf("algo %d: counts diverge at %d: %d vs %d", algo, i, got[i].Count, ref[i].Count)
			}
		}
	}
}

// twoStarGraph: two label-0 centers with two label-1 leaves each.
func twoStarGraph(t *testing.T) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(6)
	b.SetLabel(0, 0)
	b.SetLabel(1, 0)
	for v := uint32(2); v < 6; v++ {
		b.SetLabel(v, 1)
	}
	b.AddEdge(0, 2)
	b.AddEdge(0, 3)
	b.AddEdge(1, 4)
	b.AddEdge(1, 5)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestFSMTwoStars(t *testing.T) {
	g := twoStarGraph(t)
	// 3-FSM (2 edges, ≤3 vertices), support 2: the only 2-edge pattern is
	// the path 1-0-1, MNI = min(|{0,1}|, |{2,3,4,5}|) = 2 → frequent.
	got, _, err := FSM(bgCtx, g, 3, 2, &run.Env{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("frequent patterns = %d, want 1: %v", len(got), got)
	}
	if got[0].Count != 2 || got[0].Support < 2 {
		t.Fatalf("pattern count=%d support=%d, want 2, ≥2", got[0].Count, got[0].Support)
	}
	if got[0].Pattern.Edges() != 2 || got[0].Pattern.K != 3 {
		t.Fatalf("pattern = %v", got[0].Pattern)
	}
	// Support 3: even single edges are infrequent (MNI 2).
	none, _, err := FSM(bgCtx, g, 3, 3, &run.Env{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(none) != 0 {
		t.Fatalf("support 3 returned %v", none)
	}
}

func TestFSMSingleEdgeLevel(t *testing.T) {
	g := twoStarGraph(t)
	// 2-FSM = frequent single-edge patterns.
	got, _, err := FSM(bgCtx, g, 2, 2, &run.Env{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Count != 4 || got[0].Support != 2 {
		t.Fatalf("2-FSM = %+v", got)
	}
}

// TestFSMSupportOneMatchesEnumeration: with support 1 every pattern is
// frequent, so FSM must report exactly the pattern classes of all
// (k−1)-edge connected subgraphs with ≤ k vertices.
func TestFSMSupportOneMatchesEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 8; trial++ {
		g := randomGraph(rng, 7+rng.Intn(5), rng.Intn(20), 2)
		k := 3 + rng.Intn(2)
		got, _, err := FSM(bgCtx, g, k, 1, &run.Env{Threads: 1 + rng.Intn(3)})
		if err != nil {
			t.Fatal(err)
		}
		want := bruteEdgePatterns(t, g, k)
		if len(got) != len(want) {
			t.Fatalf("trial %d k=%d: %d patterns, want %d", trial, k, len(got), len(want))
		}
		for _, pc := range got {
			key := iso.CanonicalBrute(pc.Pattern)
			if want[key] != pc.Count {
				t.Fatalf("trial %d k=%d: pattern %v count %d, want %d", trial, k, pc.Pattern, pc.Count, want[key])
			}
		}
	}
}

// bruteEdgePatterns enumerates connected (k−1)-edge subgraphs with at most k
// vertices and classifies them by canonical labeled pattern.
func bruteEdgePatterns(t *testing.T, g *graph.Graph, k int) map[string]uint64 {
	t.Helper()
	out := map[string]uint64{}
	ne := k - 1
	set := make([]uint32, 0, ne)
	var rec func(start uint32)
	rec = func(start uint32) {
		if len(set) == ne {
			verts := map[uint32]bool{}
			for _, eid := range set {
				e := g.EdgeAt(eid)
				verts[e.U] = true
				verts[e.V] = true
			}
			if len(verts) > k || !edgeSetConnected(g, set) {
				return
			}
			var p pattern.Pattern
			if _, err := fillEdges(g, set, nil, &p); err != nil {
				t.Fatal(err)
			}
			out[iso.CanonicalBrute(&p)]++
			return
		}
		for e := start; e < uint32(g.M()); e++ {
			set = append(set, e)
			rec(e + 1)
			set = set[:len(set)-1]
		}
	}
	rec(0)
	return out
}

func edgeSetConnected(g *graph.Graph, set []uint32) bool {
	if len(set) == 0 {
		return false
	}
	adj := func(a, b uint32) bool {
		ea, eb := g.EdgeAt(a), g.EdgeAt(b)
		return ea.U == eb.U || ea.U == eb.V || ea.V == eb.U || ea.V == eb.V
	}
	seen := map[uint32]bool{set[0]: true}
	queue := []uint32{set[0]}
	for len(queue) > 0 {
		e := queue[0]
		queue = queue[1:]
		for _, f := range set {
			if !seen[f] && adj(e, f) {
				seen[f] = true
				queue = append(queue, f)
			}
		}
	}
	return len(seen) == len(set)
}

func TestFSMHybridMatchesMemory(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := randomGraph(rng, 30, 90, 3)
	mem, _, err := FSM(bgCtx, g, 4, 2, &run.Env{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	hyb, _, err := FSM(bgCtx, g, 4, 2, &run.Env{
		Threads: 2, MemoryBudget: 1, SpillDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(mem) != len(hyb) {
		t.Fatalf("hybrid FSM: %d patterns vs %d in memory", len(hyb), len(mem))
	}
	for i := range mem {
		if mem[i].Count != hyb[i].Count || !iso.Isomorphic(mem[i].Pattern, hyb[i].Pattern) {
			t.Fatalf("pattern %d differs: %+v vs %+v", i, mem[i], hyb[i])
		}
	}
}

func TestFSMValidation(t *testing.T) {
	g := paperGraph(t)
	if _, _, err := FSM(bgCtx, g, 1, 1, &run.Env{}); err == nil {
		t.Fatal("k=1 accepted")
	}
	if _, _, err := FSM(bgCtx, g, 3, 0, &run.Env{}); err == nil {
		t.Fatal("support 0 accepted")
	}
	if _, _, err := FSM(bgCtx, g, pattern.MaxK+1, 1, &run.Env{}); err == nil {
		t.Fatal("oversized k accepted")
	}
	if _, err := MotifCount(bgCtx, g, 1, &run.Env{}); err == nil {
		t.Fatal("motif k=1 accepted")
	}
}

func TestFSMThreadInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g := randomGraph(rng, 25, 70, 3)
	var ref []PatternCount
	for _, threads := range []int{1, 2, 4} {
		got, _, err := FSM(bgCtx, g, 4, 3, &run.Env{Threads: threads})
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = got
			continue
		}
		if len(got) != len(ref) {
			t.Fatalf("threads=%d: %d patterns vs %d", threads, len(got), len(ref))
		}
		for i := range got {
			if got[i].Count != ref[i].Count {
				t.Fatalf("threads=%d: pattern %d count %d vs %d", threads, i, got[i].Count, ref[i].Count)
			}
		}
	}
}
