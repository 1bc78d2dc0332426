package apps

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"unsafe"

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

// A memo entry stays within 64 bytes.
var _ [64 - unsafe.Sizeof(memoEntry{})]byte

// memoKey is the memo key of p's current vertex order.
func memoKey(p *pattern.Pattern) memoEntry {
	return memoEntry{adj: p.AdjBits(), labels: p.Labels, k: uint8(p.K)}
}

// TestClassifierMatchesBackend is the memo's differential property: for
// random labeled patterns of every size, classify returns exactly what a
// fresh backend computes for the sorted pattern — hash and permutation — on
// first sight, on a hit, and after the entry was evicted and recomputed. The
// key set is several times the table, so slots are overwritten constantly.
// The backend runs once per distinct sorted form the memo does not hold: on
// a key set that stays resident, exactly once per sorted form met; under
// evictions at least that often and at most once per miss.
func TestClassifierMatchesBackend(t *testing.T) {
	for name, algo := range isoAlgos {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(5))
			fresh := newHasher(algo)
			check := func(i int, p *pattern.Pattern, e *memoEntry) {
				t.Helper()
				want := p.Clone()
				var perm [pattern.MaxK]uint8
				want.SortByLabelDegreeTracked(&perm)
				if wantHash := fresh(want); e.hash != wantHash {
					t.Fatalf("key %d (%v): memo hash %#x, backend %#x", i, p, e.hash, wantHash)
				}
				if string(e.perm[:p.K]) != string(perm[:p.K]) {
					t.Fatalf("key %d (%v): memo perm %v, want %v", i, p, e.perm[:p.K], perm[:p.K])
				}
			}

			// Resident: every vertex order of a few random patterns, a few
			// hundred filled keys sharing far fewer sorted forms.
			small := &classifier{backend: newHasher(algo)}
			filled, forms := map[memoEntry]bool{}, map[memoEntry]bool{}
			smallMisses := 0
			for i := 0; i < 40; i++ {
				p := randomPattern(rng, 3+i%(pattern.MaxK-2), 3, 2)
				for rep := 0; rep < 6; rep++ {
					q := p.Permuted(rng.Perm(p.K))
					filled[memoKey(q)] = true
					sorted := q.Clone()
					sorted.SortByLabelDegree()
					forms[memoKey(sorted)] = true
					e, miss := small.classify(q.Clone())
					if miss {
						smallMisses++
					}
					check(i, q, e)
				}
			}
			if small.calls != uint64(len(forms)) || smallMisses > len(filled) || 2*len(forms) > len(filled) {
				t.Fatalf("resident keys: %d backend calls, %d misses for %d filled keys and %d sorted forms; want one call per sorted form",
					small.calls, smallMisses, len(filled), len(forms))
			}
			t.Logf("resident: %d filled keys, %d sorted forms, %d misses, %d backend calls", len(filled), len(forms), smallMisses, small.calls)

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
			forms = map[memoEntry]bool{}
			for _, p := range pats {
				sorted := p.Clone()
				sorted.SortByLabelDegree()
				forms[memoKey(sorted)] = true
			}
			if cl.calls < uint64(len(forms)) || cl.calls > uint64(misses) {
				t.Fatalf("%d backend calls for %d sorted forms and %d misses", cl.calls, len(forms), misses)
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

// TestMotifTallySlots checks the tally's two ways to find a slot: up to
// p = 4 parent vertices (k = 5) every parent word is its own slot and every
// word fits at once, with no index probed; from p = 5 on the words go
// through the hashed index, distinct slots for distinct words, and one more
// word than the slots finds the tally full.
func TestMotifTallySlots(t *testing.T) {
	tl := new(motifTally)
	for p := 1; p <= 5; p++ {
		tl.setParent(p)
		bitsPerWord := p * (p - 1) / 2
		if tl.direct != (p <= 4) {
			t.Fatalf("p=%d: direct %v", p, tl.direct)
		}
		nwords := 1 << bitsPerWord
		taken := map[*uint64]uint64{}
		for word := uint64(0); word < uint64(nwords); word++ {
			rows := tl.slot(word)
			if rows == nil {
				if !tl.direct && len(taken) == min(tallyWords, 1<<tallyBits>>p) {
					break // full, as it should be
				}
				t.Fatalf("p=%d: no slot for word %d after %d", p, word, len(taken))
			}
			if len(rows) != 1<<p {
				t.Fatalf("p=%d: slot of %d rows", p, len(rows))
			}
			if w, dup := taken[&rows[0]]; dup {
				t.Fatalf("p=%d: words %d and %d share a slot", p, w, word)
			}
			taken[&rows[0]] = word
			if again := tl.slot(word); &again[0] != &rows[0] {
				t.Fatalf("p=%d: word %d moved slots", p, word)
			}
		}
		if tl.direct {
			if len(taken) != nwords || tl.used != 0 || tl.index != [len(tl.index)]uint16{} {
				t.Fatalf("p=%d: %d direct slots, %d hashed, index touched", p, len(taken), tl.used)
			}
			tl.seen = 0
		} else {
			if len(taken) != min(tallyWords, 1<<tallyBits>>p) {
				t.Fatalf("p=%d: %d hashed slots before full", p, len(taken))
			}
			tl.used, tl.index = 0, [len(tl.index)]uint16{}
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

// TestMotifTallyMatchesOracles holds the tally path — each parent's row
// histogram added under its word, each non-zero (word, row) pair classified
// once per flush — to both motif oracles, the materialized final level and
// the brute-force subgraph enumeration, for k = 2..6 at 1, 2 and 4 threads,
// with the same classes, counts and representative bytes at every thread
// count. The second graph meets more distinct 5-vertex parent words than a
// tally has slots at k = 6, so a one-worker run flushes mid-pass; the test
// watches the tally empty between two parents to prove it.
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
// tally holds fewer slots than before. A parent without children must leave
// the tally as it was.
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
	for e.Depth() < k-2 { // as MotifCount: the row walk counts levels k−1 and k
		if err := e.Expand(bgCtx, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	a := newAggregator(g, 0, env)
	var w watchedTally
	used := 0
	err = e.ExpandVisitGroups(bgCtx, func(worker int, emb, embAdj, rows []uint32) error {
		if err := a.addMotifs(worker, emb, embAdj, rows); err != nil {
			return err
		}
		if tl := a.workers[worker].tally; tl != nil {
			if slices.Max(rows) == 0 && tl.used != used {
				return fmt.Errorf("emb %v without children took a tally slot", emb)
			}
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

// TestFSMBackendCallsBounded pins what the memo buys FSM: a worker runs the
// backend once per distinct sorted pattern it meets — counted here by
// filling and sorting every embedding FSM aggregates — not once per distinct
// filled pattern, however many filled patterns and embeddings share each
// sorted form. The graph's filled and sorted keys together take a quarter
// to a half of the memo, so a few of its 4-way sets overflow: an evicted
// sorted entry costs one more call when a filled form of it misses later,
// allowed up to a quarter of the sorted forms (1.25 calls per form).
func TestFSMBackendCallsBounded(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(61)), 1500, 3600, 4)
	const k = 4
	keys, sorted := map[memoEntry]bool{}, map[memoEntry]bool{}
	var embeddings int
	var p pattern.Pattern
	var verts []uint32
	fsmEmbeddings(t, g, k, func(emb []uint32) {
		var err error
		if verts, err = fillEdges(g, emb, verts, &p); err != nil {
			t.Fatal(err)
		}
		keys[memoKey(&p)] = true
		p.SortByLabelDegree()
		sorted[memoKey(&p)] = true
		embeddings++
	})
	if n := len(keys) + len(sorted); n < 1<<memoBits/4 || n > 1<<memoBits/2 {
		t.Fatalf("%d filled + %d sorted keys: want a quarter to a half of the %d-entry memo", len(keys), len(sorted), 1<<memoBits)
	}
	if 2*len(sorted) > len(keys) {
		t.Fatalf("%d sorted forms for %d filled keys: too few filled forms per sorted one to show the sorted probe", len(sorted), len(keys))
	}
	var info run.SpillInfo
	if _, _, err := FSM(bgCtx, g, k, 1, &run.Env{Threads: 1, Spill: &info}); err != nil {
		t.Fatal(err)
	}
	if info.IsoCalls < uint64(len(sorted)) || 4*info.IsoCalls > 5*uint64(len(sorted)) {
		t.Fatalf("%d backend calls for %d distinct sorted forms, want at most 1.25 per form", info.IsoCalls, len(sorted))
	}
	if embeddings < 20*len(keys) {
		t.Fatalf("only %d embeddings for %d keys; graph too small to show the memo", embeddings, len(keys))
	}
	t.Logf("%d embeddings, %d filled keys, %d sorted forms, %d backend calls", embeddings, len(keys), len(sorted), info.IsoCalls)
}

// TestFSMEdgeGroupMatchesFill holds FSM's grouped final pass to the
// per-embedding fill it replaced. Every final-pass extension's pattern and
// vertices, built by addEdgeGroup's extend from its parent's, equal
// fillEdges of the extended embedding, vertex order included; and FSM's
// results — pattern bytes, counts and supports — equal those of the
// materialized final level, which fills each stored embedding from scratch,
// at 1, 2 and 4 threads, unbudgeted and at budget 1.
func TestFSMEdgeGroupMatchesFill(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 3; trial++ {
		g := randomGraph(rng, 24+rng.Intn(12), 70+rng.Intn(40), 3)
		for _, k := range []int{3, 4, 5} {
			what := fmt.Sprintf("trial %d k=%d", trial, k)
			freqPairs, _ := mni.EdgePairs(g, 1)
			e, err := explore.New(explore.Config{Graph: g, Mode: explore.EdgeInduced, Env: &run.Env{Threads: 2}})
			if err != nil {
				t.Fatal(err)
			}
			if err := e.InitEdges(nil); err != nil {
				t.Fatal(err)
			}
			filter := fsmEmbeddingFilter(g, k, freqPairs)
			for e.Depth() < k-2 {
				if err := e.Expand(bgCtx, nil, filter); err != nil {
					t.Fatal(err)
				}
			}
			ws := make([]aggWorker, 2)
			var mu sync.Mutex
			var checked uint64
			total, err := e.ExpandCountVisit(bgCtx, nil, filter, func(w int, emb, children []uint32) error {
				x := &ws[w]
				if err := x.fillEdges(g, emb); err != nil {
					return err
				}
				parent, nv := x.pat, len(x.verts)
				var want pattern.Pattern
				var verts []uint32
				for _, c := range children {
					if err := x.extend(g, &parent, nv, c); err != nil {
						return err
					}
					v, err := fillEdges(g, append(append([]uint32(nil), emb...), c), verts, &want)
					if err != nil {
						return err
					}
					verts = v
					if !x.pat.Equal(&want) || x.pat.Deg != want.Deg || fmt.Sprint(x.verts) != fmt.Sprint(verts) {
						return fmt.Errorf("extension %v+%d: grouped %v on %v, filled %v on %v", emb, c, &x.pat, x.verts, &want, verts)
					}
				}
				mu.Lock()
				checked += uint64(len(children))
				mu.Unlock()
				return nil
			})
			e.Close()
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			if checked != total || total < 100 {
				t.Fatalf("%s: checked %d of %d extensions", what, checked, total)
			}
			for _, support := range []uint64{1, 3} {
				want := materializedFSMFinal(t, g, k, support, &run.Env{Threads: 1})
				if support > 1 && len(want) < 3 {
					t.Fatalf("%s s=%d: only %d frequent patterns", what, support, len(want))
				}
				for _, threads := range []int{1, 2, 4} {
					for _, budget := range []int64{0, 1} {
						env := &run.Env{Threads: threads}
						if budget > 0 {
							env.MemoryBudget, env.SpillDir = budget, t.TempDir()
						}
						got, _, err := FSM(bgCtx, g, k, support, env)
						if err != nil {
							t.Fatal(err)
						}
						comparePatternCounts(t, fmt.Sprintf("%s s=%d threads=%d budget=%d", what, support, threads, budget), got, want)
					}
				}
			}
		}
	}
}

// TestMemoAggStampedPerPass replays one final pass twice through the same
// aggregator, merging after each as FSM merges after every pass. The second
// pass meets a warm memo, so every extension hits an entry that caches an
// Agg of the first pass's PatternMap; a hit must still fold into the second
// pass's own map: the same classes, counts and supports, in fresh Aggs.
// (Not the same representatives: with no miss in the second pass nothing is
// offered, which FSM never meets, since its passes share no key.)
func TestMemoAggStampedPerPass(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(73)), 60, 220, 3)
	const k, support = 4, 3
	freqPairs, _ := mni.EdgePairs(g, 1)
	e, err := explore.New(explore.Config{Graph: g, Mode: explore.EdgeInduced, Env: &run.Env{Threads: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.InitEdges(nil); err != nil {
		t.Fatal(err)
	}
	filter := fsmEmbeddingFilter(g, k, freqPairs)
	if err := e.Expand(bgCtx, nil, filter); err != nil {
		t.Fatal(err)
	}
	type group struct{ emb, children []uint32 }
	var groups []group
	_, err = e.ExpandCountVisit(bgCtx, nil, filter, func(_ int, emb, children []uint32) error {
		groups = append(groups, group{append([]uint32(nil), emb...), append([]uint32(nil), children...)})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var info run.SpillInfo
	a := newAggregator(g, support, &run.Env{Threads: 1, Spill: &info})
	var passes [2]map[uint64]*mni.Agg
	var calls [2]uint64
	for i := range passes {
		for _, gr := range groups {
			if err := a.addEdgeGroup(0, gr.emb, gr.children); err != nil {
				t.Fatal(err)
			}
		}
		passes[i] = a.merge()
		calls[i] = info.IsoCalls
	}
	if calls[0] == 0 || calls[1] != calls[0] {
		t.Fatalf("backend calls %d after the first pass, %d after the second: want a cold first pass and an all-hit second", calls[0], calls[1])
	}
	frequent := 0
	for h, want := range passes[0] {
		got := passes[1][h]
		if got == nil || got == want {
			t.Fatalf("class %v: second pass Agg %p, first %p", want.Pat, got, want)
		}
		if got.Count != want.Count || got.Frequent() != want.Frequent() || got.Support() != want.Support() {
			t.Fatalf("class %v: second pass (%d, %v, %d), first (%d, %v, %d)", want.Pat,
				got.Count, got.Frequent(), got.Support(), want.Count, want.Frequent(), want.Support())
		}
		if want.Frequent() {
			frequent++
		}
	}
	if len(passes[1]) != len(passes[0]) || frequent == 0 || frequent == len(passes[0]) {
		t.Fatalf("%d classes in the second pass, %d in the first, %d frequent", len(passes[1]), len(passes[0]), frequent)
	}
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

// BenchmarkMotifMapper measures the whole Mapper cost of 4-motif counting —
// per parent, the word packed from the parent's own masks, its tally slot
// found and the parent's row histogram added into it, and the final flush
// that classifies each non-zero (word, row) through the memo into the
// PatternMap — replaying the (emb, embAdj, rows) groups of the
// 3-embeddings, one op per 4-embedding, without the expansion that counts
// the rows (the row walk over the stored 2-embeddings).
func BenchmarkMotifMapper(b *testing.B) {
	g := randomGraph(rand.New(rand.NewSource(3)), 400, 2400, 1)
	type group struct {
		emb, embAdj [3]uint32
		rows        [8]uint32
		children    int
	}
	e, err := explore.New(explore.Config{Graph: g, Mode: explore.VertexInduced, Env: &run.Env{Threads: 1}})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	if err := e.InitVertices(nil); err != nil {
		b.Fatal(err)
	}
	for e.Depth() < 2 {
		if err := e.Expand(bgCtx, nil, nil); err != nil {
			b.Fatal(err)
		}
	}
	var groups []group
	var embeddings int
	err = e.ExpandVisitGroups(bgCtx, func(_ int, emb, embAdj, rows []uint32) error {
		n := 0
		for _, r := range rows {
			n += int(r)
		}
		if n > 0 && embeddings < 1<<20 {
			groups = append(groups, group{[3]uint32(emb), [3]uint32(embAdj), [8]uint32(rows), n})
			embeddings += n
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
			if err := a.addMotifs(0, groups[i].emb[:], groups[i].embAdj[:], groups[i].rows[:]); err != nil {
				b.Fatal(err)
			}
			if done += groups[i].children; done >= b.N {
				break
			}
		}
	}
	a.flush(a.workers[0])
	b.StopTimer()
	b.ReportMetric(float64(a.workers[0].cl.calls), "backend-calls")
}

// BenchmarkFSMAggregate measures FSM's final-pass Mapper cost — the
// parent's edge pattern filled once, then per extension one edge added, one
// memo probe and the MNI domain inserts — replaying the (2-edge parent,
// candidate edges) groups of a labelled graph into addEdgeGroup at support
// 100, like fsm4-disk, one op per extension. Each pass over the groups ends
// with the Reduce (untimed), so every pass starts from empty pattern maps
// and warm memos, as FSM's passes do; backend-calls/pass is the first
// (cold-memo) pass's count.
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
	type group struct {
		emb      [2]uint32
		children []uint32
	}
	var groups []group
	exts, err := e.ExpandCountVisit(bgCtx, nil, filter, func(_ int, emb, children []uint32) error {
		if len(children) > 0 {
			groups = append(groups, group{[2]uint32(emb), append([]uint32(nil), children...)})
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
	var info run.SpillInfo
	a := newAggregator(g, 100, &run.Env{Threads: 1, Spill: &info})
	coldCalls := uint64(0)
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; {
		for i := range groups {
			if err := a.addEdgeGroup(0, groups[i].emb[:], groups[i].children); err != nil {
				b.Fatal(err)
			}
			if done += len(groups[i].children); done >= b.N {
				break
			}
		}
		b.StopTimer()
		a.merge()
		if coldCalls == 0 {
			coldCalls = info.IsoCalls
		}
		b.StartTimer()
	}
	b.StopTimer()
	b.ReportMetric(float64(exts), "extensions/pass")
	b.ReportMetric(float64(coldCalls), "backend-calls/pass")
}
