package apps

// Pattern aggregation, shared by every application that classifies
// embeddings: MotifCount's Mapper, FSM's per-level aggregation and pruning
// pass, and the Miner's default ResultAggregator all fold their embeddings'
// patterns into a per-worker PatternMap through one aggregator.
//
// The isomorphism backend is cheap per pattern but a run has orders of
// magnitude more embeddings than distinct filled patterns (k-motifs on an
// unlabeled graph have at most 2^(k(k−1)/2) adjacency words), so each worker
// puts a small exact memo in front of it: keyed by the pattern exactly as
// filled and compared by value, it returns the class hash and the
// (label, degree) sort permutation of a pattern seen before without sorting
// or hashing again — Arabesque's two-level "quick pattern" aggregation, at
// the one seam every backend sits behind.
//
// The ResultAggregator fills a pattern per embedding and classifies it
// through the memo. FSM's passes get each parent with all its extensions and
// fill the parent once: a child edge is one more edge (and at most one more
// vertex) on the parent's pattern, and FSM's pruning classifies the children
// it stores the same way. On a miss the memo is probed again with the sorted
// pattern, so the backend runs once per distinct sorted pattern, and an
// entry caches its class's Agg for the pass, so a hit skips the PatternMap
// too. Motifs go one step further, because an unlabeled child's filled
// pattern is just two masks the explorer already holds: the parent's
// adjacency word and the child's row. The explorer hands MotifCount's Mapper
// each parent's children already counted by row, and the Mapper adds that
// histogram into the parent word's slot of a fixed per-worker tally — one
// slot lookup and 2^(k−1) additions per parent, nothing per child — and
// fills, classifies and folds each non-zero (word, row) pair once, when the
// tally is Reduced (or flushed because it is full).

import (
	"context"
	"fmt"
	"math/bits"
	"slices"

	"kaleido/internal/blisslike"
	"kaleido/internal/eigen"
	"kaleido/internal/explore"
	"kaleido/internal/graph"
	"kaleido/internal/mni"
	"kaleido/internal/pattern"
	"kaleido/internal/run"
)

// hasher is an isomorphism backend: an isomorphism-invariant 64-bit hash of
// a pattern whose vertices are already sorted by (label, degree). A hasher
// may carry scratch state and is used by one worker only.
type hasher func(p *pattern.Pattern) uint64

func newHasher(a run.IsoAlgo) hasher {
	switch a {
	case run.IsoBliss:
		return blisslike.Hash
	case run.IsoEigenExact:
		return eigen.NewExact().Hash
	default:
		return eigen.New().Hash
	}
}

// memoBits sizes the per-worker memo: 2^12 entries of 56 bytes, 224 KiB of
// fixed scratch per worker whatever the run, in 4-way sets. Motif counting
// up to k = 5 fits without a single eviction (see memoSet). On the fsm4-disk
// graph (4 labels, 1920 vertices, seed 42) FSM's final pass visits 180,132
// extensions; each worker meets about 1,344 distinct filled patterns there
// but only 294 distinct sorted ones, and at 2 workers the pass runs the
// backend about 600 times (0.3 %; the floor, one call per sorted form per
// worker, is 588). Keyed by filled patterns alone it ran it about 2,790
// times (floor 2,688), and about 3,550 with 4-way sets of 2^11 entries. A
// run with more keys than entries evicts and pays the backend again, never
// a wrong answer.
const (
	memoBits = 12
	memoWays = 4
	setBits  = memoBits - 2 // log2(memoWays); at least 8, see memoSet
)

// memoEntry maps one filled pattern — (k, adjacency word, label array), the
// whole key held by value so that a hit is an exact match, never a digest
// match — to its class hash and sort permutation (perm[i] is the sorted
// position of the vertex filled at index i). agg caches the class's Agg in
// the worker's PatternMap of the aggregation pass numbered gen: a memo
// outlives its passes (FSM's), a PatternMap does not, so a stale stamp means
// "look the class up again" (and a stale agg keeps an earlier pass's Agg
// reachable until the entry is overwritten or the aggregator dropped).
// 56 bytes.
type memoEntry struct {
	adj    uint64
	labels [pattern.MaxK]graph.Label
	hash   uint64
	agg    *mni.Agg
	perm   [pattern.MaxK]uint8
	gen    uint32 // 0 until an aggregator stamps agg
	k      uint8  // 0 marks an empty entry: patterns have at least one vertex
}

// identity is the sort permutation of a pattern already sorted by
// (label, degree): the selection sort swaps nothing.
var identity = [pattern.MaxK]uint8{0, 1, 2, 3, 4, 5, 6, 7}

// classifier is one worker's isomorphism state: the backend behind a
// set-associative memo. It is scratch like the backend's own matrices — fixed
// size, not intermediate data, not charged to the memory tracker.
type classifier struct {
	backend hasher
	calls   uint64 // backend invocations
	sets    [1 << setBits][memoWays]memoEntry
}

// classify returns the memo entry of p's filled form. On a miss p is sorted
// by (label, degree) and its sorted form is looked up in the same memo before
// the backend runs: a sorted pattern's own permutation is the identity, so
// its entry holds exactly the backend's hash for it, and the backend runs
// once per distinct sorted form the memo holds, not once per filled form.
// A backend call stores the sorted form's entry beside the filled one. The
// set's oldest entry is overwritten on every store; on a hit p is untouched.
// The entry is valid until the next classify.
func (c *classifier) classify(p *pattern.Pattern) (e *memoEntry, miss bool) {
	adj, labels := p.AdjBits(), p.Labels
	if e = c.lookup(adj, &labels, p.K); e != nil {
		return e, false
	}
	var perm [pattern.MaxK]uint8
	p.SortByLabelDegreeTracked(&perm)
	sorted := p.AdjBits()
	var hash uint64
	if s := c.lookup(sorted, &p.Labels, p.K); s != nil {
		hash = s.hash
	} else {
		hash = c.backend(p)
		c.calls++
		if sorted != adj || p.Labels != labels {
			c.store(sorted, &p.Labels, p.K, hash, &identity)
		}
	}
	return c.store(adj, &labels, p.K, hash, &perm), true
}

// lookup returns the entry of key (adj, labels, k), or nil.
func (c *classifier) lookup(adj uint64, labels *[pattern.MaxK]graph.Label, k int) *memoEntry {
	set := &c.sets[memoSet(adj, labels)]
	for i := range set {
		if e := &set[i]; e.adj == adj && e.labels == *labels && int(e.k) == k {
			return e
		}
	}
	return nil
}

// store writes key's entry over the oldest of its set and returns it. Ways
// are kept newest first: the oldest falls off the end.
func (c *classifier) store(adj uint64, labels *[pattern.MaxK]graph.Label, k int, hash uint64, perm *[pattern.MaxK]uint8) *memoEntry {
	set := &c.sets[memoSet(adj, labels)]
	copy(set[1:], set[:memoWays-1])
	set[0] = memoEntry{adj: adj, labels: *labels, hash: hash, perm: *perm, k: uint8(k)}
	return &set[0]
}

// memoSet picks the set of a key. The vertex pairs among the first five
// vertices index the sets directly — as many of the ten as setBits holds,
// pair (3, 4) being the first to go — and everything else — the remaining
// pairs and the labels — is hashed and XORed over that index, so keys that
// differ only in the direct pairs never share a set. In particular every
// unlabeled pattern on up to four vertices owns a set (their six pairs are
// direct for setBits ≥ 8), and the 1024 5-motif words share a set at most
// 2^(10−setBits) at a time — never more than memoWays: motif counting never
// evicts, and a worker runs the backend once per word it meets.
func memoSet(adj uint64, l *[pattern.MaxK]graph.Label) uint64 {
	const (
		upper = 0x0080C0E0F0F8FCFE // bit i*8+j of the adjacency word, i < j
		five  = 0x10181C1E         // ... with j < 5
	)
	direct := adj>>1&0xF | adj>>10&7<<4 | adj>>19&3<<7 | adj>>28&1<<9
	l0 := uint64(l[0]) | uint64(l[1])<<16 | uint64(l[2])<<32 | uint64(l[3])<<48
	l1 := uint64(l[4]) | uint64(l[5])<<16 | uint64(l[6])<<32 | uint64(l[7])<<48
	rest := adj&(upper&^five) ^ l0*0x9E3779B97F4A7C15 ^ l1*0xC2B2AE3D27D4EB4F
	return direct&(1<<setBits-1) ^ rest*0xD6E8FEB86659FD93>>(64-setBits)
}

// aggregator is the Mapper state of one aggregation pass: per-worker
// classifiers and PatternMaps keyed by class hash. support is the MNI
// threshold of FSM; 0 aggregates counts only (motifs, the Miner's default
// aggregator). gen numbers the pass: a memo entry's cached Agg belongs to
// the worker's current PatternMap only when its stamp equals gen.
type aggregator struct {
	g       *graph.Graph
	support uint64
	info    *run.SpillInfo // receives the backend-call count; may be nil
	gen     uint32
	workers []*aggWorker
}

type aggWorker struct {
	cl      classifier
	classes map[uint64]*mni.Agg
	pat     pattern.Pattern
	verts   []uint32
	tally   *motifTally // allocated by the first addMotifs

	// frequentOnly's last parent: its edges, pattern and vertex count.
	last   []uint32
	parent pattern.Pattern
	nv     int
	fail   error // first fill error of a frequentOnly pass
}

func newAggregator(g *graph.Graph, support uint64, env *run.Env) *aggregator {
	a := &aggregator{g: g, support: support, info: env.Spill, gen: 1, workers: make([]*aggWorker, env.Workers())}
	for i := range a.workers {
		a.workers[i] = &aggWorker{
			cl:      classifier{backend: newHasher(env.Iso)},
			classes: map[uint64]*mni.Agg{},
		}
	}
	return a
}

// add folds the filled pattern ws.pat into the worker's PatternMap; verts
// lists the embedding's vertices in fill order (nil when only counting).
func (a *aggregator) add(ws *aggWorker, verts []uint32) {
	e := a.class(ws)
	e.agg.Insert(verts, &e.perm, a.support)
}

// class classifies the filled pattern ws.pat and returns its memo entry
// (valid until the next classify), whose agg is the class's Agg in the
// worker's PatternMap, created on first sight. A hit stamped with this pass
// returns at once: no map lookup. Every distinct filled pattern misses the
// memo at least once per worker — or hits the entry a miss stored for its
// sorted form, which is then the form that miss offered — so offering the
// sorted form on misses alone makes each class's representative the
// smallest encoding over all its embeddings — the same pattern whatever the
// schedule. (A memo outlives a pass only in FSM, whose passes have patterns
// of different edge counts: no key of one pass hits in another.)
func (a *aggregator) class(ws *aggWorker) *memoEntry {
	e, miss := ws.cl.classify(&ws.pat)
	if e.gen == a.gen {
		return e // a store zeroes gen, so this is never a miss
	}
	agg := ws.classes[e.hash]
	switch {
	case agg == nil:
		if !miss {
			ws.pat.SortByLabelDegree()
		}
		if a.support == 0 {
			agg = mni.NewCount(&ws.pat)
		} else {
			agg = mni.NewAgg(&ws.pat, a.g.N())
		}
		ws.classes[e.hash] = agg
	case miss:
		agg.Offer(&ws.pat)
	}
	e.agg, e.gen = agg, a.gen
	return e
}

// addVertices folds one vertex-induced embedding, with its labels.
func (a *aggregator) addVertices(w int, emb []uint32) error {
	ws := a.workers[w]
	if err := fillVertices(a.g, emb, false, &ws.pat); err != nil {
		return err
	}
	a.add(ws, nil)
	return nil
}

// addMotifs counts the unlabeled patterns of one parent embedding's
// extensions — the explorer's row visitor of MotifCount. An unlabeled
// child's pattern is fixed by two masks: the parent's adjacency word, packed
// from the parent's own masks embAdj once per parent, and the child's row,
// its mask (bit i ⇔ adjacent to emb[i]). rows[r] counts the children with
// row r, so the parent adds rows into its word's slot of the worker's tally;
// nothing is filled, classified or looked up per child, and the graph is
// never probed. A parent without children takes no slot.
func (a *aggregator) addMotifs(w int, emb, embAdj, rows []uint32) error {
	var some uint32
	for _, n := range rows {
		some |= n
	}
	if some == 0 {
		return nil
	}
	ws := a.workers[w]
	t := ws.tally
	if t == nil || t.p != len(emb) {
		if len(emb)+1 > pattern.MaxK {
			return fmt.Errorf("apps: motif size %d exceeds pattern capacity %d", len(emb)+1, pattern.MaxK)
		}
		if t == nil {
			t = new(motifTally)
			ws.tally = t
		}
		a.flush(ws)
		t.setParent(len(emb))
	}
	word := uint64(0)
	for l := len(emb) - 1; l > 0; l-- {
		word = word<<l | uint64(embAdj[l])
	}
	slot := t.slot(word)
	if slot == nil {
		a.flush(ws)
		slot = t.slot(word)
	}
	for row, n := range rows {
		slot[row] += uint64(n)
	}
	return nil
}

// The motif tally: per worker, 2^tallyBits counters (64 KiB) in slots of
// 2^p rows, one slot per parent adjacency word met. Like the memo it is
// fixed scratch, not intermediate data, and is not charged to the memory
// tracker. Up to k = 5 (p ≤ 4, words of at most 6 bits) every parent word
// has a slot of its own, the word itself: 2^6 words of 16 rows fill 1024
// counters, and a 64-bit mask records the words met. From k = 6 on, a
// 2^11-entry index at load ≤ ½ maps each word met to one of at most
// tallyWords slots; a run may then meet more words than slots, and the
// tally is flushed into the PatternMap whenever a new word finds it full.
const (
	tallyBits  = 13
	tallyWords = 1 << 10
	indexBits  = 11 // log2(2 * tallyWords)
	directBits = 6  // the widest parent word indexed directly: p = 4
)

// motifTally counts the children of a pass by (parent word, row). A parent
// word packs the parent's masks embAdj[1:p]: embAdj[l] at bit l(l−1)/2, so
// bit l(l−1)/2+i is the pair (i, l).
type motifTally struct {
	p      int    // parent size: a slot holds 2^p rows
	direct bool   // every word is its own slot (p(p−1)/2 ≤ directBits)
	seen   uint64 // direct: bit w set ⇔ slot w was taken
	used   int    // hashed: slots in use
	words  [tallyWords]uint64
	index  [1 << indexBits]uint16 // open addressing: slot+1 of a word, 0 = empty
	counts [1 << tallyBits]uint64
}

// setParent sizes an empty tally for parents of p vertices.
func (t *motifTally) setParent(p int) {
	t.p, t.direct = p, p*(p-1)/2 <= directBits
}

// slot returns the rows of word's slot, taking a new slot on first sight, or
// nil when the word is new and every slot is taken.
func (t *motifTally) slot(word uint64) []uint64 {
	if t.direct {
		t.seen |= 1 << word
		return t.counts[word<<t.p : (word+1)<<t.p]
	}
	h := word * 0x9E3779B97F4A7C15 >> (64 - indexBits)
	for ; ; h = (h + 1) & (1<<indexBits - 1) {
		s := int(t.index[h]) - 1
		if s < 0 {
			if t.used == min(tallyWords, 1<<tallyBits>>t.p) {
				return nil
			}
			s = t.used
			t.used++
			t.index[h] = uint16(s + 1)
			t.words[s] = word
		} else if t.words[s] != word {
			continue
		}
		return t.counts[s<<t.p : (s+1)<<t.p]
	}
}

// flush folds the worker's tally into its PatternMap and empties it: each
// non-zero (word, row) is filled once, classified through the memo and
// added with its count — the Reduce-side half of addMotifs.
func (a *aggregator) flush(ws *aggWorker) {
	t := ws.tally
	if t == nil {
		return
	}
	if t.direct {
		for seen := t.seen; seen != 0; seen &= seen - 1 {
			word := uint64(bits.TrailingZeros64(seen))
			a.flushSlot(ws, word, t.counts[word<<t.p:(word+1)<<t.p])
		}
		t.seen = 0
		return
	}
	for s, word := range t.words[:t.used] {
		a.flushSlot(ws, word, t.counts[s<<t.p:(s+1)<<t.p])
	}
	if t.used > 0 {
		t.used = 0
		t.index = [len(t.index)]uint16{}
	}
}

// flushSlot folds and zeroes the rows of one parent word's slot.
func (a *aggregator) flushSlot(ws *aggWorker, word uint64, rows []uint64) {
	p := ws.tally.p
	parent := pattern.Pattern{K: p + 1}
	for l := 1; l < p; l++ {
		for i := 0; i < l; i++ {
			if word>>(l*(l-1)/2+i)&1 != 0 {
				parent.SetEdge(i, l)
			}
		}
	}
	for row, n := range rows {
		if n == 0 {
			continue
		}
		rows[row] = 0
		ws.pat = parent
		for r := row; r != 0; r &= r - 1 {
			ws.pat.SetEdge(bits.TrailingZeros(uint(r)), p)
		}
		a.class(ws).agg.Count += n
	}
}

// fillEdges sets ws.pat and ws.verts to the pattern and vertices of one
// edge-induced embedding.
func (ws *aggWorker) fillEdges(g *graph.Graph, emb []uint32) (err error) {
	ws.verts, err = fillEdges(g, emb, ws.verts, &ws.pat)
	return err
}

// addEdges folds one edge-induced embedding, tracking MNI domains when the
// aggregator has a support threshold.
func (a *aggregator) addEdges(w int, emb []uint32) error {
	ws := a.workers[w]
	if err := ws.fillEdges(a.g, emb); err != nil {
		return err
	}
	a.add(ws, ws.verts)
	return nil
}

// addEdgeGroup folds the extensions of one edge-induced parent embedding —
// the explorer's group visitor of FSM's passes. The parent's pattern
// and vertices are filled once. A child edge adds one edge and at most one
// vertex, which goes last, where fillEdges of the extended embedding puts
// it: so a child's pattern is the parent's plus that edge — the same memo
// key, class and representative as filling the child from scratch, for the
// cost of finding the edge's endpoints among the parent's few vertices.
func (a *aggregator) addEdgeGroup(w int, emb, children []uint32) error {
	if len(children) == 0 {
		return nil
	}
	ws := a.workers[w]
	if err := ws.fillEdges(a.g, emb); err != nil {
		return err
	}
	parent, nv := ws.pat, len(ws.verts)
	for _, c := range children {
		if err := ws.extend(a.g, &parent, nv, c); err != nil {
			return err
		}
		a.add(ws, ws.verts)
	}
	return nil
}

// extend sets ws.pat and ws.verts to the pattern and vertices of a parent
// extended by edge c: the parent's pattern, and its vertices as
// ws.verts[:nv], with c's endpoints found among them (or appended) and the
// edge set.
func (ws *aggWorker) extend(g *graph.Graph, parent *pattern.Pattern, nv int, c uint32) error {
	ws.pat, ws.verts = *parent, ws.verts[:nv]
	ed := g.EdgeAt(c)
	i, err := ws.vertex(g, ed.U)
	if err != nil {
		return err
	}
	j, err := ws.vertex(g, ed.V)
	if err != nil {
		return err
	}
	ws.pat.SetEdge(i, j)
	return nil
}

// vertex returns v's index in the worker's filled pattern, appending v with
// its label as the last vertex when the pattern does not hold it yet.
func (ws *aggWorker) vertex(g *graph.Graph, v uint32) (int, error) {
	for i, u := range ws.verts {
		if u == v {
			return i, nil
		}
	}
	i, err := ws.pat.AddVertex(g.Label(v))
	if err != nil {
		return 0, err
	}
	ws.verts = append(ws.verts, v)
	return i, nil
}

// frequentOnly narrows filter to the children whose class is frequent in
// merged — FSM's pruning, applied while an intermediate level is stored, so
// a child of an infrequent pattern is never written — or returns filter
// itself when every class is frequent. A worker fills a parent's pattern on
// the parent's first candidate (the last parent filled is kept by its
// edges); a child is that pattern plus one edge, as in addEdgeGroup, and is
// classified through the memo. A fill that fails rejects the child and is
// kept for err.
func (a *aggregator) frequentOnly(filter explore.EdgeFilter, merged map[uint64]*mni.Agg) explore.EdgeFilter {
	all := true
	for _, agg := range merged {
		all = all && agg.Frequent()
	}
	if all {
		return filter
	}
	for _, ws := range a.workers {
		ws.last = ws.last[:0]
	}
	return func(w int, emb, verts []uint32, cand uint32) bool {
		if !filter(w, emb, verts, cand) {
			return false
		}
		ws := a.workers[w]
		ok, err := ws.frequent(a.g, emb, cand, merged)
		if err != nil && ws.fail == nil {
			ws.fail = err
		}
		return ok
	}
}

// frequent reports whether the class of parent emb extended by edge c is
// frequent in merged.
func (ws *aggWorker) frequent(g *graph.Graph, emb []uint32, c uint32, merged map[uint64]*mni.Agg) (bool, error) {
	if !slices.Equal(ws.last, emb) {
		if err := ws.fillEdges(g, emb); err != nil {
			return false, err
		}
		ws.last, ws.parent, ws.nv = append(ws.last[:0], emb...), ws.pat, len(ws.verts)
	}
	if err := ws.extend(g, &ws.parent, ws.nv, c); err != nil {
		return false, err
	}
	e, _ := ws.cl.classify(&ws.pat)
	agg := merged[e.hash]
	return agg != nil && agg.Frequent(), nil
}

// err returns and clears the first fill error of a frequentOnly pass.
func (a *aggregator) err() error {
	var first error
	for _, ws := range a.workers {
		if first == nil {
			first = ws.fail
		}
		ws.fail = nil
	}
	return first
}

// merge Reduces the per-worker maps into one (the paper notes this merge is
// the scalability cost of FSM, Fig. 14), each after its pending motif tally,
// and leaves the workers with empty maps — and warm memos — for the next
// pass.
func (a *aggregator) merge() map[uint64]*mni.Agg {
	maps := make([]map[uint64]*mni.Agg, len(a.workers))
	var calls uint64
	for i, ws := range a.workers {
		a.flush(ws)
		maps[i], ws.classes = ws.classes, map[uint64]*mni.Agg{}
		calls += ws.cl.calls
		ws.cl.calls = 0
	}
	a.gen++ // the memos' cached Aggs now belong to the merged map
	if a.info != nil {
		a.info.IsoCalls += calls
	}
	return mni.MergeMaps(maps, a.support)
}

// counts Reduces a count-only aggregation into sorted results.
func (a *aggregator) counts() []PatternCount {
	merged := a.merge()
	out := make([]PatternCount, 0, len(merged))
	for _, agg := range merged {
		out = append(out, PatternCount{Pattern: agg.Pat, Count: agg.Count})
	}
	sortCounts(out)
	return out
}

// AggregatePatterns counts the pattern classes of the explorer's current
// embeddings with the configured backend — the default ResultAggregator of
// the Miner API. Vertex-induced embeddings aggregate their labeled induced
// patterns, edge-induced ones the pattern of exactly their edges.
func AggregatePatterns(ctx context.Context, g *graph.Graph, e *explore.Explorer, mode explore.Mode, env *run.Env) ([]PatternCount, error) {
	a := newAggregator(g, 0, env)
	visit := a.addVertices
	if mode == explore.EdgeInduced {
		visit = a.addEdges
	}
	if err := e.ForEach(ctx, visit); err != nil {
		return nil, err
	}
	return a.counts(), nil
}

// fillVertices sets p to the vertex-induced pattern of verts; unlabeled
// strips labels (motif counting treats the graph as unlabeled, §6.2).
func fillVertices(g *graph.Graph, verts []uint32, unlabeled bool, p *pattern.Pattern) error {
	if err := p.Reset(len(verts)); err != nil {
		return err
	}
	for k, v := range verts {
		if !unlabeled {
			p.Labels[k] = g.Label(v)
		}
		for i, u := range verts[:k] {
			if g.HasEdge(u, v) {
				p.SetEdge(i, k)
			}
		}
	}
	return nil
}

// fillEdges sets p to the labeled pattern of an edge-induced embedding and
// returns (reusing vbuf) its distinct vertices in pattern-index order.
func fillEdges(g *graph.Graph, emb []uint32, vbuf []uint32, p *pattern.Pattern) ([]uint32, error) {
	verts := vbuf[:0]
	idx := func(v uint32) int {
		for i, u := range verts {
			if u == v {
				return i
			}
		}
		verts = append(verts, v)
		return len(verts) - 1
	}
	type pe struct{ a, b int }
	var edges [pattern.MaxK * (pattern.MaxK - 1) / 2]pe
	if len(emb) > len(edges) {
		return verts, fmt.Errorf("apps: %d edges exceed pattern capacity", len(emb))
	}
	for i, eid := range emb {
		ed := g.EdgeAt(eid)
		edges[i] = pe{idx(ed.U), idx(ed.V)}
	}
	if err := p.Reset(len(verts)); err != nil {
		return verts, err
	}
	for i, v := range verts {
		p.Labels[i] = g.Label(v)
	}
	for i := range emb {
		p.SetEdge(edges[i].a, edges[i].b)
	}
	return verts, nil
}
