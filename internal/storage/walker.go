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

	// Pending run handed out unit-by-unit when the caller mixes in Next.
	run    []uint32
	runPos int

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
	if cap(w.vcur) < k {
		w.vcur = make([]*hybridVertBlocks, k)
		w.bcur = make([]*hybridBoundBlocks, k)
		w.vblk = make([][]uint32, k)
		w.bblk = make([][]uint64, k)
	} else {
		w.vcur = w.vcur[:k]
		w.bcur = w.bcur[:k]
		w.vblk = w.vblk[:k]
		w.bblk = w.bblk[:k]
	}
	for i := 0; i < k; i++ {
		w.vcur[i], w.bcur[i] = nil, nil
		w.vblk[i], w.bblk[i] = nil, nil
		w.vpos[i], w.bpos[i] = 0, 0
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
		lv := c.Level(l)
		w.idx[l-1] = a[l-1]
		w.vcur[l-1] = lv.VertBlocks(a[l-1], b[l-1]+1)
		if l >= 2 {
			w.bcur[l-1] = lv.BoundBlocks(a[l-2])
			ge, ok := w.nextBound(l)
			if !ok {
				err := streamErr(w.boundErr(l), "boundary", l)
				w.closeAll()
				return err
			}
			w.groupEnd[l-1] = ge
		}
	}
	// Materialize the starting prefix for levels 1..k−1; level k units are
	// consumed inside Next/NextRun.
	for l := 1; l < k; l++ {
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
//
// Use either NextRun or Next on a given walk, not both.
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
			ge, bok := w.nextBound(k)
			if !bok {
				w.err = streamErr(w.boundErr(k), "boundary", k)
				return nil, 0, nil, false
			}
			w.groupEnd[k-1] = ge
		}
	}
	i := k - 1
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

// Next returns the next embedding in range. emb is a reused buffer of length
// Depth(); callers must copy it to retain it. changedFrom is the smallest
// level (1-based) whose unit differs from the previous emission — on the
// first emission it is 1; when only the leaf advanced it is Depth(). Callers
// use it to recompute incremental per-prefix state (candidate sets) only for
// the levels that actually changed.
func (w *Walker) Next() (emb []uint32, changedFrom int, ok bool) {
	if w.runPos < len(w.run) {
		w.prefix[w.k-1] = w.run[w.runPos]
		w.runPos++
		return w.prefix, w.k, true
	}
	emb, ch, leaves, ok := w.NextRun()
	if !ok {
		return nil, 0, false
	}
	w.run, w.runPos = leaves, 1
	w.prefix[w.k-1] = leaves[0]
	return emb, ch, true
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
			ge, ok := w.nextBound(l)
			if !ok {
				w.err = streamErr(w.boundErr(l), "boundary", l)
				return changed
			}
			w.groupEnd[l-1] = ge
		}
	}
	v, ok := w.nextVert(l)
	if !ok {
		w.err = streamErr(w.vertErr(l), "vert", l)
		return changed
	}
	w.prefix[l-1] = v
	return changed
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
	}
	w.run, w.runPos = nil, 0
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
