package apps

import (
	"fmt"
	"math/rand"
	"testing"

	"kaleido/internal/explore"
	"kaleido/internal/graph"
	"kaleido/internal/iso"
	"kaleido/internal/mni"
	"kaleido/internal/pattern"
	"kaleido/internal/run"
)

var isoAlgos = map[string]run.IsoAlgo{"eigen": run.IsoEigen, "bliss": run.IsoBliss, "exact": run.IsoEigenExact}

// randomPattern draws a labeled pattern on k vertices, each pair an edge with
// probability 1/density.
func randomPattern(rng *rand.Rand, k, labels, density int) *pattern.Pattern {
	p, _ := pattern.New(k)
	for i := 0; i < k; i++ {
		p.Labels[i] = graph.Label(rng.Intn(labels))
		for j := i + 1; j < k; j++ {
			if rng.Intn(density) == 0 {
				p.SetEdge(i, j)
			}
		}
	}
	return p
}

// TestFillVertices pins the vertex-induced fill: labels copied (or stripped),
// exactly the induced edges set.
func TestFillVertices(t *testing.T) {
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	b.AddEdge(3, 0)
	b.SetLabel(0, 2)
	b.SetLabel(2, 1)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	var p pattern.Pattern
	if err := fillVertices(g, []uint32{0, 1, 2}, false, &p); err != nil {
		t.Fatal(err)
	}
	if p.K != 3 || p.Edges() != 2 || !p.HasEdge(0, 1) || !p.HasEdge(1, 2) || p.HasEdge(0, 2) {
		t.Fatalf("wrong structure: %v", &p)
	}
	if p.Labels[0] != 2 || p.Labels[1] != 0 || p.Labels[2] != 1 {
		t.Fatalf("wrong labels: %v", p.Labels[:3])
	}
	if err := fillVertices(g, []uint32{0, 1, 2}, true, &p); err != nil || p.Labels != [pattern.MaxK]graph.Label{} || p.Edges() != 2 {
		t.Fatalf("unlabeled fill = %v, %v", &p, err)
	}
	if err := fillVertices(g, make([]uint32, pattern.MaxK+1), true, &p); err == nil {
		t.Fatal("oversized embedding accepted")
	}
}

// TestClassifierMatchesBackend is the memo's differential property: for
// random labeled patterns of every size, classify returns exactly what a
// fresh backend computes for the sorted pattern — hash and permutation — on
// first sight, on a hit, and after the entry was evicted and recomputed. The
// key set is several times the table, so slots are overwritten constantly.
func TestClassifierMatchesBackend(t *testing.T) {
	for name, algo := range isoAlgos {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(5))
			keys, kmin := 3<<memoBits, 2
			if algo != run.IsoEigen {
				// The slow backends get fewer keys, all from the large sizes
				// where random draws rarely repeat: still more than the table.
				keys, kmin = 1<<memoBits+400, 5
			}
			pats := make([]*pattern.Pattern, keys)
			distinct := map[string]bool{}
			for i := range pats {
				pats[i] = randomPattern(rng, kmin+i%(pattern.MaxK+1-kmin), 3, 2+rng.Intn(2))
				distinct[pats[i].Encode()] = true
			}
			if len(distinct) <= 1<<memoBits {
				t.Fatalf("%d distinct keys do not overflow the %d-slot table", len(distinct), 1<<memoBits)
			}
			cl := &classifier{backend: newHasher(algo)}
			fresh := newHasher(algo)
			var hits, misses int
			for round := 0; round < 2; round++ {
				for i, p := range pats {
					// Each key twice in a row: the second lookup can only miss
					// if the memo lost what it stored a moment ago.
					for rep := 0; rep < 2; rep++ {
						want := p.Clone()
						var perm [pattern.MaxK]uint8
						want.SortByLabelDegreeTracked(&perm)
						wantHash := fresh(want.Clone())

						q := p.Clone()
						e, miss := cl.classify(q)
						if rep == 1 && miss {
							t.Fatalf("key %d: missed right after being stored", i)
						}
						if miss {
							misses++
							if !q.Equal(want) {
								t.Fatalf("key %d: pattern left as %v after a miss, want sorted %v", i, q, want)
							}
						} else {
							hits++
							if !q.Equal(p) {
								t.Fatalf("key %d: a hit modified the pattern", i)
							}
						}
						if e.hash != wantHash {
							t.Fatalf("key %d (%v): memo hash %#x, backend %#x (miss=%v)", i, p, e.hash, wantHash, miss)
						}
						for v := 0; v < p.K; v++ {
							if e.perm[v] != perm[v] {
								t.Fatalf("key %d (%v): memo perm %v, want %v", i, p, e.perm[:p.K], perm[:p.K])
							}
						}
					}
				}
			}
			if uint64(misses) != cl.calls {
				t.Fatalf("%d misses but %d backend calls", misses, cl.calls)
			}
			if misses < len(distinct)+1<<(memoBits-1) {
				t.Fatalf("%d misses over %d distinct keys in 2 rounds: too few evictions to test the overwrite path", misses, len(distinct))
			}
			if hits < 2*keys {
				t.Fatalf("only %d hits", hits)
			}
		})
	}
}

// TestClassifierPreservesIsomorphism checks the memoised hashes against exact
// isomorphism: isomorphic patterns (random vertex permutations of each other,
// so they have different memo keys) get equal hashes and non-isomorphic ones
// of the same size and edge count get different ones, for every backend.
func TestClassifierPreservesIsomorphism(t *testing.T) {
	for name, algo := range isoAlgos {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(9))
			cl := &classifier{backend: newHasher(algo)}
			hashOf := func(p *pattern.Pattern) uint64 {
				e, _ := cl.classify(p.Clone())
				return e.hash
			}
			type bucket struct{ k, edges int }
			buckets := map[bucket][]*pattern.Pattern{}
			for trial := 0; trial < 300; trial++ {
				p := randomPattern(rng, 2+rng.Intn(pattern.MaxK-1), 3, 3)
				buckets[bucket{p.K, p.Edges()}] = append(buckets[bucket{p.K, p.Edges()}], p)
				if h, hp := hashOf(p), hashOf(p.Permuted(rng.Perm(p.K))); h != hp {
					t.Fatalf("%v and a permutation of it hash to %#x and %#x", p, h, hp)
				}
			}
			checked := 0
			for _, ps := range buckets {
				for i := 0; i < len(ps); i++ {
					for j := i + 1; j < len(ps) && j < i+8; j++ {
						if hashEq, isoEq := hashOf(ps[i]) == hashOf(ps[j]), iso.Isomorphic(ps[i], ps[j]); hashEq != isoEq {
							t.Fatalf("hash equal %v, isomorphic %v\n p=%v\n q=%v", hashEq, isoEq, ps[i], ps[j])
						}
						checked++
					}
				}
			}
			if checked < 100 {
				t.Fatalf("only %d pairs compared", checked)
			}
		})
	}
}

// TestMemoSlotSmallMotifsOwnSlots checks memoSet's guarantee: every
// unlabeled adjacency word on up to four vertices has a set of its own, and
// the words on five vertices share a set at most 2^(10−setBits) at a time,
// which fits its ways — so no motif count up to k = 5 ever evicts.
func TestMemoSlotSmallMotifsOwnSlots(t *testing.T) {
	owners := map[uint64]map[uint64]bool{}
	for k := 2; k <= 5; k++ {
		for mask := 0; mask < 1<<(k*(k-1)/2); mask++ {
			p, _ := pattern.New(k)
			bit := 0
			for i := 0; i < k; i++ {
				for j := i + 1; j < k; j++ {
					if mask>>bit&1 == 1 {
						p.SetEdge(i, j)
					}
					bit++
				}
			}
			set := memoSet(p.AdjBits(), &p.Labels)
			if set >= 1<<setBits {
				t.Fatalf("set %d out of range", set)
			}
			if owners[set] == nil {
				owners[set] = map[uint64]bool{}
			}
			owners[set][p.AdjBits()] = true
			if n := len(owners[set]); k <= 4 && n > 1 || n > 1<<(10-setBits) || n > memoWays {
				t.Fatalf("k=%d: %d adjacency words share set %d: %v", k, n, set, owners[set])
			}
		}
	}
}

// TestMotifBackendCallsBounded pins what the memo is for: 4-motifs have at
// most 2^6 distinct adjacency words, so a worker runs the backend at most 64
// times however many embeddings it classifies.
func TestMotifBackendCallsBounded(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(21)), 300, 1500, 1)
	for _, threads := range []int{1, 3} {
		var info run.SpillInfo
		res, err := MotifCount(bgCtx, g, 4, &run.Env{Threads: threads, Spill: &info})
		if err != nil {
			t.Fatal(err)
		}
		var embeddings uint64
		for _, pc := range res {
			embeddings += pc.Count
		}
		calls := info.IsoCalls
		if calls < uint64(len(res)) || calls > uint64(64*threads) {
			t.Fatalf("threads=%d: %d backend calls for %d classes, want at most 64 per worker", threads, calls, len(res))
		}
		if embeddings < 1000*calls {
			t.Fatalf("threads=%d: only %d embeddings for %d backend calls; graph too small to show the memo", threads, embeddings, calls)
		}
	}
}

// TestMotifTallyMatchesOracles holds the tally path — each child counted
// under (parent word, row), each non-zero pair classified once per flush — to
// both motif oracles, the materialized final level and the brute-force
// subgraph enumeration, for k = 2..6 at 1, 2 and 4 threads, with the same
// classes, counts and representative bytes at every thread count. The
// second graph meets more distinct 5-vertex parent words than a tally has
// slots at k = 6, so a one-worker run flushes mid-pass; the test watches the
// tally empty between two parents to prove it.
func TestMotifTallyMatchesOracles(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		ks   []int
	}{
		{"sparse", randomGraph(rand.New(rand.NewSource(37)), 14, 34, 1), []int{2, 3, 4, 5, 6}},
		{"overflow", randomGraph(rand.New(rand.NewSource(2)), 18, 90, 1), []int{6}},
	}
	for _, c := range cases {
		for _, k := range c.ks {
			want := materializedMotifCount(t, c.g, k)
			brute := bruteMotifs(t, c.g, k)
			if len(want) != len(brute) {
				t.Fatalf("%s k=%d: oracles disagree: %d materialized classes, %d brute", c.name, k, len(want), len(brute))
			}
			var one []PatternCount
			for _, threads := range []int{1, 2, 4} {
				what := fmt.Sprintf("%s k=%d threads=%d", c.name, k, threads)
				got, err := MotifCount(bgCtx, c.g, k, &run.Env{Threads: threads})
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("%s: %d classes, want %d", what, len(got), len(want))
				}
				for _, pc := range got {
					key := iso.CanonicalBrute(pc.Pattern)
					if pc.Count != want[key] || pc.Count != brute[key] {
						t.Fatalf("%s: motif %v count %d, materialized %d, brute %d", what, pc.Pattern, pc.Count, want[key], brute[key])
					}
				}
				if threads == 1 {
					one = got
				} else {
					comparePatternCounts(t, what, got, one)
				}
			}
			if c.name == "overflow" {
				if got := tallyFlushes(t, c.g, k); got.flushes == 0 {
					t.Fatalf("%s k=%d: no mid-pass flush in a one-worker run", c.name, k)
				} else {
					comparePatternCounts(t, c.name+" watched", got.counts, one)
				}
			}
		}
	}
}

type watchedTally struct {
	counts  []PatternCount
	flushes int
}

// tallyFlushes runs k-motif counting on one worker through an aggregator of
// its own and counts the mid-pass flushes: the parents after which the
// tally holds fewer slots than before.
func tallyFlushes(t *testing.T, g *graph.Graph, k int) watchedTally {
	t.Helper()
	env := &run.Env{Threads: 1}
	e, err := explore.New(explore.Config{Graph: g, Mode: explore.VertexInduced, Env: env})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.InitVertices(nil); err != nil {
		t.Fatal(err)
	}
	for e.Depth() < k-1 {
		if err := e.Expand(bgCtx, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	a := newAggregator(g, 0, env)
	var w watchedTally
	used := 0
	err = e.ExpandVisitGroups(bgCtx, nil, nil, func(worker int, emb, embAdj, children, adj []uint32) error {
		if err := a.addMotifs(worker, emb, embAdj, children, adj); err != nil {
			return err
		}
		if tl := a.workers[worker].tally; tl != nil {
			if tl.used < used {
				w.flushes++
			}
			used = tl.used
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	w.counts = a.counts()
	return w
}

// fsmEmbeddings calls visit with every embedding FSM(k, support 1) folds —
// the stored levels of 2..k−2 edges and the final level of k−1 edges, all
// kept since nothing is infrequent at support 1 — through an explorer of its
// own, one worker, no memo.
func fsmEmbeddings(t testing.TB, g *graph.Graph, k int, visit func(emb []uint32)) {
	t.Helper()
	freqPairs, _ := mni.EdgePairs(g, 1)
	e, err := explore.New(explore.Config{Graph: g, Mode: explore.EdgeInduced, Env: &run.Env{Threads: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.InitEdges(nil); err != nil {
		t.Fatal(err)
	}
	for e.Depth() < k-1 {
		if err := e.Expand(bgCtx, nil, fsmEmbeddingFilter(g, k, freqPairs)); err != nil {
			t.Fatal(err)
		}
		if err := e.ForEach(bgCtx, func(_ int, emb []uint32) error { visit(emb); return nil }); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFSMBackendCallsBounded pins what the set-associative memo buys FSM: on
// a labelled graph whose distinct filled patterns fit the memo, a worker
// runs the backend at most 1.25 times per distinct key it meets — counted
// here by filling every embedding FSM aggregates — however many embeddings
// share each key.
func TestFSMBackendCallsBounded(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(61)), 1500, 3600, 4)
	const k = 4
	keys := map[memoEntry]bool{}
	var embeddings int
	var p pattern.Pattern
	var verts []uint32
	fsmEmbeddings(t, g, k, func(emb []uint32) {
		var err error
		if verts, err = fillEdges(g, emb, verts, &p); err != nil {
			t.Fatal(err)
		}
		keys[memoEntry{adj: p.AdjBits(), labels: p.Labels, k: uint8(p.K)}] = true
		embeddings++
	})
	if len(keys) < 1<<memoBits/4 || len(keys) > 1<<memoBits/2 {
		t.Fatalf("%d distinct keys: want a quarter to a half of the %d-entry memo", len(keys), 1<<memoBits)
	}
	var info run.SpillInfo
	if _, _, err := FSM(bgCtx, g, k, 1, &run.Env{Threads: 1, Spill: &info}); err != nil {
		t.Fatal(err)
	}
	if info.IsoCalls < uint64(len(keys)) || 4*info.IsoCalls > 5*uint64(len(keys)) {
		t.Fatalf("%d backend calls for %d distinct keys, want at most 1.25 per key", info.IsoCalls, len(keys))
	}
	if embeddings < 20*len(keys) {
		t.Fatalf("only %d embeddings for %d keys; graph too small to show the memo", embeddings, len(keys))
	}
	t.Logf("%d embeddings, %d distinct keys, %d backend calls", embeddings, len(keys), info.IsoCalls)
}

// aggregateAtDepth expands a fresh explorer to depth and runs the default
// aggregator over its top level.
func aggregateAtDepth(t *testing.T, g *graph.Graph, mode explore.Mode, depth int, opt *run.Env) []PatternCount {
	t.Helper()
	e, err := explore.New(explore.Config{Graph: g, Mode: mode, Env: opt})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if mode == explore.EdgeInduced {
		err = e.InitEdges(nil)
	} else {
		err = e.InitVertices(nil)
	}
	if err != nil {
		t.Fatal(err)
	}
	for e.Depth() < depth {
		if err := e.Expand(bgCtx, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	res, err := AggregatePatterns(bgCtx, g, e, mode, opt)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestRepresentativeDeterministic pins that the pattern representing a class
// does not depend on which worker met which embedding first: the three
// aggregating entry points return byte-identical results for every thread
// count, with every backend.
func TestRepresentativeDeterministic(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(31)), 60, 260, 3)
	for name, algo := range isoAlgos {
		if algo == run.IsoEigenExact && testing.Short() {
			continue
		}
		base := &run.Env{Threads: 1, Iso: algo}
		motifs, err := MotifCount(bgCtx, g, 4, base)
		if err != nil {
			t.Fatal(err)
		}
		fsm, _, err := FSM(bgCtx, g, 4, 3, base)
		if err != nil {
			t.Fatal(err)
		}
		aggV := aggregateAtDepth(t, g, explore.VertexInduced, 3, base)
		aggE := aggregateAtDepth(t, g, explore.EdgeInduced, 2, base)
		if len(motifs) < 6 || len(fsm) < 10 || len(aggV) < 10 || len(aggE) < 10 {
			t.Fatalf("%s: weak input: %d motifs, %d fsm, %d/%d aggregated classes", name, len(motifs), len(fsm), len(aggV), len(aggE))
		}
		for _, threads := range []int{1, 2, 3} {
			opt := &run.Env{Threads: threads, Iso: algo}
			what := fmt.Sprintf("%s threads=%d", name, threads)
			got, err := MotifCount(bgCtx, g, 4, opt)
			if err != nil {
				t.Fatal(err)
			}
			comparePatternCounts(t, what+" motifs", got, motifs)
			if got, _, err = FSM(bgCtx, g, 4, 3, opt); err != nil {
				t.Fatal(err)
			}
			comparePatternCounts(t, what+" fsm", got, fsm)
			comparePatternCounts(t, what+" aggregate vertex-induced", aggregateAtDepth(t, g, explore.VertexInduced, 3, opt), aggV)
			comparePatternCounts(t, what+" aggregate edge-induced", aggregateAtDepth(t, g, explore.EdgeInduced, 2, opt), aggE)
		}
	}
}

// TestAggregatePatternsEdgeInducedMatchesFSM checks the default aggregator in
// edge-induced mode against FSM at support 1, which keeps every pattern and
// prunes nothing: same classes, same representatives, same counts.
func TestAggregatePatternsEdgeInducedMatchesFSM(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(41)), 18, 40, 3)
	for _, k := range []int{3, 4} {
		opt := &run.Env{Threads: 2}
		want, _, err := FSM(bgCtx, g, k, 1, opt)
		if err != nil {
			t.Fatal(err)
		}
		got := aggregateAtDepth(t, g, explore.EdgeInduced, k-1, opt)
		var kept []PatternCount
		for _, pc := range got {
			if pc.Pattern.K <= k { // FSM(k) bounds the vertex count, the Miner does not
				kept = append(kept, pc)
			}
		}
		for i := range want {
			want[i].Support = 0 // the default aggregator counts, it has no support
		}
		comparePatternCounts(t, fmt.Sprintf("k=%d", k), kept, want)
	}
}

// memoBenchPatterns returns n distinct connected-ish random patterns on k
// vertices over 3 labels.
func memoBenchPatterns(k, n int) []pattern.Pattern {
	rng := rand.New(rand.NewSource(int64(k)))
	seen := map[string]bool{}
	var out []pattern.Pattern
	for len(out) < n {
		p := randomPattern(rng, k, 3, 2)
		if enc := p.Encode(); !seen[enc] {
			seen[enc] = true
			out = append(out, *p)
		}
	}
	return out
}

var benchSink uint64

// BenchmarkHashMemo is the "pattern hashing" layer: one classify per op.
// hit cycles through 16 keys that all stay resident — the steady state of a
// run; miss cycles through 8× more keys than slots, so nearly every lookup
// evicts and pays sort + backend — the un-memoised cost per embedding.
func BenchmarkHashMemo(b *testing.B) {
	for _, k := range []int{4, 8} {
		for _, c := range []struct {
			name string
			keys int
		}{{"hit", 16}, {"miss", 8 << memoBits}} {
			keys := c.keys
			if k == 4 && keys > 4096 {
				keys = 4096 // 3^4 label arrays × 2^6 adjacency words bound the k=4 key space
			}
			pats := memoBenchPatterns(k, keys)
			b.Run(fmt.Sprintf("%s/k%d", c.name, k), func(b *testing.B) {
				cl := &classifier{backend: newHasher(run.IsoEigen)}
				var p pattern.Pattern
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					p = pats[i%len(pats)]
					e, _ := cl.classify(&p)
					benchSink += e.hash
				}
				b.ReportMetric(float64(cl.calls)/float64(b.N), "backend-calls/op")
			})
		}
	}
}

// BenchmarkMotifMapper measures the whole per-embedding Mapper cost of
// 4-motif counting — the parent word packed from the parent's own masks and
// its tally slot found once per parent, one counter increment per child, and
// the final flush that classifies each non-zero (word, row) through the memo
// into the PatternMap — over stored 3-embeddings, one op per 4-embedding,
// without the expansion that produces the candidates and their masks.
func BenchmarkMotifMapper(b *testing.B) {
	g := randomGraph(rand.New(rand.NewSource(3)), 400, 2400, 1)
	type group struct {
		emb, embAdj   [3]uint32
		children, adj []uint32
	}
	e, err := explore.New(explore.Config{Graph: g, Mode: explore.VertexInduced, Env: &run.Env{Threads: 1}})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	if err := e.InitVertices(nil); err != nil {
		b.Fatal(err)
	}
	for e.Depth() < 3 {
		if err := e.Expand(bgCtx, nil, nil); err != nil {
			b.Fatal(err)
		}
	}
	var groups []group
	var embeddings int
	err = e.ExpandVisitGroups(bgCtx, nil, nil, func(_ int, emb, embAdj, children, adj []uint32) error {
		if len(children) > 0 && embeddings < 1<<20 {
			groups = append(groups, group{[3]uint32(emb), [3]uint32(embAdj), append([]uint32(nil), children...), append([]uint32(nil), adj...)})
			embeddings += len(children)
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
	a := newAggregator(g, 0, &run.Env{Threads: 1})
	b.ResetTimer()
	done := 0
	for done < b.N {
		for i := range groups {
			if err := a.addMotifs(0, groups[i].emb[:], groups[i].embAdj[:], groups[i].children, groups[i].adj); err != nil {
				b.Fatal(err)
			}
			if done += len(groups[i].children); done >= b.N {
				break
			}
		}
	}
	a.flush(a.workers[0])
	b.StopTimer()
	b.ReportMetric(float64(a.workers[0].cl.calls), "backend-calls")
}

// BenchmarkFSMAggregate measures FSM's per-embedding Mapper cost at the
// final level — edge-pattern fill, memo lookup, MNI domain inserts — one op
// per addEdgeExtension over stored (2-edge embedding, candidate edge) pairs
// of a labelled graph, at support 100 like fsm4-disk. Each pass over the
// pairs ends with the Reduce (untimed), so every pass starts from empty
// pattern maps and warm memos, as FSM's passes do.
func BenchmarkFSMAggregate(b *testing.B) {
	g := randomGraph(rand.New(rand.NewSource(61)), 1920, 4000, 4)
	const k = 4
	freqPairs, _ := mni.EdgePairs(g, 1)
	e, err := explore.New(explore.Config{Graph: g, Mode: explore.EdgeInduced, Env: &run.Env{Threads: 1}})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	if err := e.InitEdges(nil); err != nil {
		b.Fatal(err)
	}
	filter := fsmEmbeddingFilter(g, k, freqPairs)
	if err := e.Expand(bgCtx, nil, filter); err != nil {
		b.Fatal(err)
	}
	type ext struct {
		emb  [2]uint32
		cand uint32
	}
	var exts []ext
	_, err = e.ExpandCountVisit(bgCtx, nil, filter, func(_ int, emb []uint32, cand uint32) error {
		exts = append(exts, ext{[2]uint32(emb), cand})
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
	a := newAggregator(g, 100, &run.Env{Threads: 1})
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; {
		for i := range exts {
			if err := a.addEdgeExtension(0, exts[i].emb[:], exts[i].cand); err != nil {
				b.Fatal(err)
			}
			if done++; done == b.N {
				break
			}
		}
		b.StopTimer()
		a.merge()
		b.StartTimer()
	}
	b.StopTimer()
	b.ReportMetric(float64(len(exts)), "embeddings/pass")
}
