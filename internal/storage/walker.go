package storage

import "fmt"

// Walker enumerates the embeddings of a CSE's top level sequentially over an
// index range, materializing the full unit sequence ⟨u1..uk⟩ of each. It is
// the sequential engine under parallel exploration: each worker walks its own
// range. All level access goes through the levels' block cursors, so the
// per-unit work is a slice index increment — the part dispatch and (for disk
// parts) the channel receive of the prefetch stream are paid once per block,
// not once per unit. Only the t range starts use random access (ParentOf).
//
// A Walker is reusable: Reset repositions it over a new range (or a new CSE)
// without reallocating its per-level buffers; raw level data reaches it as
// zero-copy blocks of the levels' own arrays. Workers therefore keep one
// Walker each and Reset it per chunk.
//
// A delta level, and the level under one, is walked a group at a time: the
// walker keeps the level's current group materialized (grp), and rebuilds
// a delta group as the merge of its own children with the parent group's
// units after the leaf. A range that starts mid-group seeds the whole group
// of every delta level on the ancestor chain.
type Walker struct {
	k        int
	cur, hi  int // current and end index at level k
	first    bool
	err      error
	prefix   []uint32 // prefix[l-1] = unit of current level-l embedding
	idx      []int    // idx[l-1]   = current global index at level l
	groupEnd []uint64 // groupEnd[l-1] = end boundary of current group at level l (l ≥ 2)

	// Per-level block state: the current decoded vert/bound block and the
	// consumption position within it, refilled from the level's block
	// cursors (level 1 has no bound cursor).
	vblk [][]uint32
	vpos []int
	bblk [][]uint64
	bpos []int
	vcur []*hybridVertBlocks
	bcur []*hybridBoundBlocks

	// Group-at-a-time levels (mat): grp[l-1] holds the units of the current
	// group of level l from global index gbase[l-1] to its end, either a
	// zero-copy slice of vblk or gbuf[l-1]; delta marks a delta level.
	mat, delta []bool
	grp, gbuf  [][]uint32
	gbase      []int
	obuf       []uint32 // a delta group's own children, when they straddle blocks

	// Reusable ancestor-chain scratch.
	anca, ancb []int
}

// NewWalker positions a walker over top-level embeddings [lo, hi).
func NewWalker(c *CSE, lo, hi int) (*Walker, error) {
	w := &Walker{}
	if err := w.Reset(c, lo, hi); err != nil {
		return nil, err
	}
	return w, nil
}

// Reset repositions the walker over top-level embeddings [lo, hi) of c,
// closing any cursors of the previous walk and reusing all buffers.
func (w *Walker) Reset(c *CSE, lo, hi int) error {
	w.closeAll()
	k := c.Depth()
	top := c.Top()
	if lo < 0 || hi > top.Len() || lo > hi {
		return fmt.Errorf("storage: walker range [%d,%d) out of [0,%d]", lo, hi, top.Len())
	}
	w.k = k
	w.cur, w.hi = lo, hi
	w.first = true
	w.err = nil
	w.prefix = growU32(w.prefix, k)
	w.idx = growInt(w.idx, k)
	w.groupEnd = growU64(w.groupEnd, k)
	w.vpos = growInt(w.vpos, k)
	w.bpos = growInt(w.bpos, k)
	w.gbase = growInt(w.gbase, k)
	if cap(w.vcur) < k {
		w.vcur = make([]*hybridVertBlocks, k)
		w.bcur = make([]*hybridBoundBlocks, k)
		w.vblk = make([][]uint32, k)
		w.bblk = make([][]uint64, k)
		w.mat = make([]bool, k)
		w.delta = make([]bool, k)
		w.grp = make([][]uint32, k)
	} else {
		w.vcur = w.vcur[:k]
		w.bcur = w.bcur[:k]
		w.vblk = w.vblk[:k]
		w.bblk = w.bblk[:k]
		w.mat = w.mat[:k]
		w.delta = w.delta[:k]
		w.grp = w.grp[:k]
	}
	for i := 0; i < k; i++ {
		w.vcur[i], w.bcur[i] = nil, nil
		w.vblk[i], w.bblk[i] = nil, nil
		w.vpos[i], w.bpos[i] = 0, 0
		w.grp[i] = nil
		w.delta[i] = c.Level(i+1).parent != nil
	}
	for i := 0; i < k; i++ {
		w.mat[i] = w.delta[i] || (i+1 < k && w.delta[i+1])
	}
	for len(w.gbuf) < k {
		w.gbuf = append(w.gbuf, nil)
	}
	if lo == hi {
		return nil
	}
	// Ancestor chain of the first and last leaf in range.
	a := growInt(w.anca, k)
	b := growInt(w.ancb, k)
	w.anca, w.ancb = a, b
	a[k-1], b[k-1] = lo, hi-1
	for l := k - 1; l >= 1; l-- {
		var err error
		if a[l-1], err = c.Level(l + 1).ParentOf(a[l]); err != nil {
			w.closeAll()
			return fmt.Errorf("storage: walker: parent of %d at level %d: %w", a[l], l+1, err)
		}
		if b[l-1], err = c.Level(l + 1).ParentOf(b[l]); err != nil {
			w.closeAll()
			return fmt.Errorf("storage: walker: parent of %d at level %d: %w", b[l], l+1, err)
		}
	}
	for l := 1; l <= k; l++ {
		if err := w.seed(c.Level(l), l, a, b); err != nil {
			w.closeAll()
			return err
		}
	}
	// Materialize the starting prefix for levels 1..k−1; level k units are
	// consumed inside Next/NextRun.
	for l := 1; l < k; l++ {
		if w.mat[l-1] {
			w.prefix[l-1] = w.grp[l-1][w.idx[l-1]-w.gbase[l-1]]
			continue
		}
		v, ok := w.nextVert(l)
		if !ok {
			err := streamErr(w.vertErr(l), "vert", l)
			w.closeAll()
			return err
		}
		w.prefix[l-1] = v
	}
	return nil
}

// seed opens level l's cursors for the walk from embedding a[l-1] to
// b[l-1] (the ancestor chains of the range ends) and reads its first group
// end; a group-at-a-time level also loads its first group — a delta level's
// whole, the rest of it past a[l-1] for the level under one — so its
// cursor spans the groups of a[l-2] through b[l-2] whole.
func (w *Walker) seed(lv *HybridLevel, l int, a, b []int) error {
	i := l - 1
	w.idx[i] = a[i]
	lo, hi := a[i], b[i]+1
	if w.mat[i] {
		var err error
		if w.delta[i] {
			lo, err = lv.ownStart(a[i-1])
		}
		if err == nil {
			hi, err = lv.ownStart(b[i-1] + 1)
		}
		if err != nil {
			return fmt.Errorf("storage: walker: group seek at level %d: %w", l, err)
		}
	}
	w.vcur[i] = lv.VertBlocks(lo, hi)
	if l == 1 {
		return nil
	}
	w.bcur[i] = lv.BoundBlocks(a[i-1])
	ge, ok := w.nextBound(l)
	if !ok {
		return streamErr(w.boundErr(l), "boundary", l)
	}
	w.groupEnd[i] = ge
	if !w.mat[i] {
		return nil
	}
	from := uint64(a[i])
	if w.delta[i] {
		gs, err := lv.GroupStart(a[i-1])
		if err != nil {
			return fmt.Errorf("storage: walker: group start at level %d: %w", l, err)
		}
		from = gs
	}
	return w.loadGroup(l, from)
}

// loadGroup reads the units of level l's current group from index from to
// its end into grp: stored units of a plain level, and of a delta level its
// own children merged with the units after the leaf in the parent level's
// current group — the leaf's later siblings.
func (w *Walker) loadGroup(l int, from uint64) error {
	i := l - 1
	n := int(w.groupEnd[i] - from)
	w.gbase[i] = int(from)
	if !w.delta[i] {
		g, ok := w.readStored(i, n, &w.gbuf[i])
		if !ok {
			return streamErr(w.vertErr(l), "vert", l)
		}
		w.grp[i] = g
		return nil
	}
	later := w.grp[i-1][w.idx[i-1]-w.gbase[i-1]+1:]
	if n < len(later) {
		return fmt.Errorf("storage: walker: level %d group of %d units has %d later siblings", l, n, len(later))
	}
	own, ok := w.readStored(i, n-len(later), &w.obuf)
	if !ok {
		return streamErr(w.vertErr(l), "vert", l)
	}
	w.gbuf[i] = mergeSorted(w.gbuf[i], own, later)
	w.grp[i] = w.gbuf[i]
	return nil
}

// readStored returns the next n stored units of level i+1: a slice of the
// current block when they lie in it, else copied into *buf.
func (w *Walker) readStored(i, n int, buf *[]uint32) ([]uint32, bool) {
	if n == 0 {
		return nil, true
	}
	if !w.ensureVertBlock(i) {
		return nil, false
	}
	if p := w.vpos[i]; p+n <= len(w.vblk[i]) {
		w.vpos[i] += n
		return w.vblk[i][p : p+n], true
	}
	out := (*buf)[:0]
	for len(out) < n {
		if !w.ensureVertBlock(i) {
			return nil, false
		}
		p := w.vpos[i]
		t := min(n-len(out), len(w.vblk[i])-p)
		out = append(out, w.vblk[i][p:p+t]...)
		w.vpos[i] += t
	}
	*buf = out
	return out, true
}

// ensureVertBlock makes vblk[i][vpos[i]] addressable, pulling decoded blocks
// from the level's cursor as needed; false means the stream ended (or erred).
func (w *Walker) ensureVertBlock(i int) bool {
	for w.vpos[i] >= len(w.vblk[i]) {
		if w.vcur[i] == nil {
			return false
		}
		blk, ok := w.vcur[i].NextBlock()
		if !ok {
			return false
		}
		w.vblk[i], w.vpos[i] = blk, 0
	}
	return true
}

// nextVert returns the next unit of level l.
func (w *Walker) nextVert(l int) (uint32, bool) {
	i := l - 1
	if !w.ensureVertBlock(i) {
		return 0, false
	}
	v := w.vblk[i][w.vpos[i]]
	w.vpos[i]++
	return v, true
}

// nextBound returns the next group end boundary of level l.
func (w *Walker) nextBound(l int) (uint64, bool) {
	i := l - 1
	for w.bpos[i] >= len(w.bblk[i]) {
		if w.bcur[i] == nil {
			return 0, false
		}
		blk, ok := w.bcur[i].NextBlock()
		if !ok {
			return 0, false
		}
		w.bblk[i], w.bpos[i] = blk, 0
	}
	v := w.bblk[i][w.bpos[i]]
	w.bpos[i]++
	return v, true
}

func (w *Walker) vertErr(l int) error {
	if w.vcur[l-1] != nil {
		return w.vcur[l-1].Err()
	}
	return nil
}

func (w *Walker) boundErr(l int) error {
	if w.bcur[l-1] != nil {
		return w.bcur[l-1].Err()
	}
	return nil
}

// NextRun returns the next batch of embeddings sharing one prefix. emb is the
// reused prefix buffer of length Depth(); its leaf slot emb[Depth()-1] is NOT
// filled — each unit of leaves is, in order, the leaf of one embedding, so
// consumers run a tight loop assigning emb[Depth()-1] themselves. leaves is
// only valid until the next walker call; callers must copy it to retain it.
//
// changedFrom is the smallest level (1-based) whose unit differs from the
// previous emission, counting the first embedding of this run — embeddings
// within a run change only at level Depth(). A run never crosses a
// level-(k−1) group boundary, but one group may split into several runs at
// decoded-block seams; continuation runs report changedFrom = Depth().
func (w *Walker) NextRun() (emb []uint32, changedFrom int, leaves []uint32, ok bool) {
	if w.err != nil || w.cur >= w.hi {
		return nil, 0, nil, false
	}
	k := w.k
	changed := k
	if k > 1 {
		for uint64(w.cur) >= w.groupEnd[k-1] {
			c := w.advance(k - 1)
			if w.err != nil {
				return nil, 0, nil, false
			}
			if c < changed {
				changed = c
			}
			if !w.nextGroup(k) {
				return nil, 0, nil, false
			}
		}
	}
	i := k - 1
	if w.mat[i] {
		take := min(int(w.groupEnd[i])-w.cur, w.hi-w.cur)
		leaves = w.grp[i][w.cur-w.gbase[i]:][:take]
		w.cur += take
		w.idx[i] = w.cur - 1
		if w.first {
			w.first = false
			changed = 1
		}
		return w.prefix, changed, leaves, true
	}
	if !w.ensureVertBlock(i) {
		w.err = streamErr(w.vertErr(k), "vert", k)
		return nil, 0, nil, false
	}
	// Clip the run to the group end, the range end, and the decoded block.
	take := len(w.vblk[i]) - w.vpos[i]
	if k > 1 {
		if g := int(w.groupEnd[i] - uint64(w.cur)); g < take {
			take = g
		}
	}
	if r := w.hi - w.cur; r < take {
		take = r
	}
	leaves = w.vblk[i][w.vpos[i] : w.vpos[i]+take]
	w.vpos[i] += take
	w.cur += take
	w.idx[i] = w.cur - 1
	if w.first {
		w.first = false
		changed = 1
	}
	return w.prefix, changed, leaves, true
}

// advance moves level l to its next embedding, cascading group-boundary
// crossings to lower levels; it returns the smallest level changed.
func (w *Walker) advance(l int) int {
	changed := l
	w.idx[l-1]++
	if l > 1 {
		for uint64(w.idx[l-1]) >= w.groupEnd[l-1] {
			c := w.advance(l - 1)
			if w.err != nil {
				return changed
			}
			if c < changed {
				changed = c
			}
			if !w.nextGroup(l) {
				return changed
			}
		}
	}
	if w.mat[l-1] {
		w.prefix[l-1] = w.grp[l-1][w.idx[l-1]-w.gbase[l-1]]
		return changed
	}
	v, ok := w.nextVert(l)
	if !ok {
		w.err = streamErr(w.vertErr(l), "vert", l)
		return changed
	}
	w.prefix[l-1] = v
	return changed
}

// nextGroup moves level l to the group of its parent level's new current
// embedding: it reads the group's end and, on a group-at-a-time level, loads
// the group. false means the walk failed (see Err).
func (w *Walker) nextGroup(l int) bool {
	ge, ok := w.nextBound(l)
	if !ok {
		w.err = streamErr(w.boundErr(l), "boundary", l)
		return false
	}
	from := w.groupEnd[l-1]
	w.groupEnd[l-1] = ge
	if w.mat[l-1] {
		if err := w.loadGroup(l, from); err != nil {
			w.err = err
			return false
		}
	}
	return true
}

// Err returns the first stream error encountered, if any.
func (w *Walker) Err() error { return w.err }

// streamErr wraps a cursor error, or reports premature stream end.
func streamErr(err error, kind string, level int) error {
	if err != nil {
		return fmt.Errorf("storage: walker: %s stream at level %d: %w", kind, level, err)
	}
	return fmt.Errorf("storage: walker: %s stream ended early at level %d", kind, level)
}

// Close releases all cursors. The walker stays reusable via Reset.
func (w *Walker) Close() error {
	w.closeAll()
	return nil
}

func (w *Walker) closeAll() {
	for i := range w.vcur {
		if w.vcur[i] != nil {
			w.vcur[i].Close()
			w.vcur[i] = nil
		}
		if w.bcur[i] != nil {
			w.bcur[i].Close()
			w.bcur[i] = nil
		}
		// Drop block references into the walked levels so a pooled idle
		// walker does not keep a closed level's arrays alive.
		w.vblk[i] = nil
		w.bblk[i] = nil
		w.grp[i] = nil
	}
}

func growU32(s []uint32, n int) []uint32 {
	if cap(s) < n {
		return make([]uint32, n)
	}
	return s[:n]
}

func growU64(s []uint64, n int) []uint64 {
	if cap(s) < n {
		return make([]uint64, n)
	}
	return s[:n]
}

func growInt(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}
