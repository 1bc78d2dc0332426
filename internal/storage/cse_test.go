package storage

import (
	"math/rand"
	"reflect"
	"testing"
)

// walkerLayouts are the residencies every CSE and walker case runs over: the
// levels above the base all raw, all on disk, and mixed part by part.
var walkerLayouts = []layout{layoutRaw, layoutDisk, layoutMixed}

// stackOf builds a CSE over units whose level l+2 holds levels[l], each level
// built through buildLevels in three parts laid out as lay. It also returns
// the reference arrays of the levels above the base.
func stackOf(t testing.TB, lay layout, units []uint32, levels ...[][]uint32) (*CSE, []*MemLevel) {
	t.Helper()
	c := NewCSE(NewBaseLevel(units))
	var refs []*MemLevel
	for _, groups := range levels {
		ml, hl, _ := buildLevels(t, nil, groups, 3, lay)
		if err := c.Push(hl); err != nil {
			t.Fatal(err)
		}
		refs = append(refs, ml)
	}
	return c, refs
}

// forEachLayout runs fn as one subtest per walker layout.
func forEachLayout(t *testing.T, fn func(t *testing.T, lay layout)) {
	for _, lay := range walkerLayouts {
		t.Run(lay.name, func(t *testing.T) { fn(t, lay) })
	}
}

// fig4CSE builds the exact CSE of the paper's Fig. 3/Fig. 4 running example
// (vertex ids shifted to 0-based): 5 1-embeddings, 7 canonical 2-embeddings,
// 8 canonical 3-embeddings.
func fig4CSE(t testing.TB, lay layout) *CSE {
	t.Helper()
	c, _ := stackOf(t, lay, []uint32{0, 1, 2, 3, 4},
		// Verts {1,4,2,4,3,4,4}, Offs {0,2,4,6,7,7}.
		[][]uint32{{1, 4}, {2, 4}, {3, 4}, {4}, {}},
		// Verts {2,4,2,3,3,4,3,4}, Offs {0,2,4,6,7,8,8,8}.
		[][]uint32{{2, 4}, {2, 3}, {3, 4}, {3}, {4}, {}, {}})
	return c
}

// fig3Embeddings are the 8 canonical 3-embeddings s13..s20 of paper Fig. 3,
// 0-based, in CSE order.
var fig3Embeddings = [][]uint32{
	{0, 1, 2}, {0, 1, 4}, {0, 4, 2}, {0, 4, 3},
	{1, 2, 3}, {1, 2, 4}, {1, 4, 3}, {2, 3, 4},
}

func TestExtractPaperExample(t *testing.T) {
	forEachLayout(t, func(t *testing.T, lay layout) {
		c := fig4CSE(t, lay)
		// §3.1.1 worked example: offset 5 at level 3 is embedding ⟨2,3,5⟩
		// (0-based ⟨1,2,4⟩).
		dst := make([]uint32, 3)
		if err := c.Extract(5, dst); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(dst, []uint32{1, 2, 4}) {
			t.Fatalf("Extract(5) = %v, want [1 2 4]", dst)
		}
		for i, want := range fig3Embeddings {
			if err := c.Extract(i, dst); err != nil {
				t.Fatalf("Extract(%d): %v", i, err)
			}
			if !reflect.DeepEqual(dst, want) {
				t.Fatalf("Extract(%d) = %v, want %v", i, dst, want)
			}
		}
	})
}

func TestExtractErrors(t *testing.T) {
	c := fig4CSE(t, layoutRaw)
	dst := make([]uint32, 3)
	if err := c.Extract(-1, dst); err == nil {
		t.Error("negative index accepted")
	}
	if err := c.Extract(8, dst); err == nil {
		t.Error("out-of-range index accepted")
	}
	if err := c.Extract(0, make([]uint32, 2)); err == nil {
		t.Error("short dst accepted")
	}
}

func TestWalkerFullRange(t *testing.T) {
	forEachLayout(t, func(t *testing.T, lay layout) {
		got, changes := walkAll(t, fig4CSE(t, lay), 0, 8)
		if !reflect.DeepEqual(got, fig3Embeddings) {
			t.Fatalf("walk = %v\nwant %v", got, fig3Embeddings)
		}
		// First emission resets everything; leaf-only advances report level 3;
		// prefix changes report the deepest changed level.
		wantChanges := []int{1, 3, 2, 3, 1, 3, 2, 1}
		if !reflect.DeepEqual(changes, wantChanges) {
			t.Fatalf("changedFrom = %v, want %v", changes, wantChanges)
		}
	})
}

func TestWalkerSubRanges(t *testing.T) {
	forEachLayout(t, func(t *testing.T, lay layout) {
		c := fig4CSE(t, lay)
		// Every split of [0,8) must concatenate to the full enumeration.
		for split := 0; split <= 8; split++ {
			head, _ := walkAll(t, c, 0, split)
			tail, _ := walkAll(t, c, split, 8)
			if got := append(head, tail...); !reflect.DeepEqual(got, fig3Embeddings) {
				t.Fatalf("split %d: walk = %v", split, got)
			}
		}
	})
}

func TestWalkerEmptyRange(t *testing.T) {
	forEachLayout(t, func(t *testing.T, lay layout) {
		w, err := NewWalker(fig4CSE(t, lay), 3, 3)
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		if _, _, ok := w.Next(); ok {
			t.Fatal("empty range emitted an embedding")
		}
		if _, _, _, ok := w.NextRun(); ok {
			t.Fatal("empty range emitted a run")
		}
	})
}

func TestWalkerRangeValidation(t *testing.T) {
	c := fig4CSE(t, layoutRaw)
	for _, r := range [][2]int{{-1, 3}, {0, 9}, {5, 3}} {
		if _, err := NewWalker(c, r[0], r[1]); err == nil {
			t.Errorf("range %v accepted", r)
		}
	}
}

func TestWalkerSkipsEmptyGroups(t *testing.T) {
	forEachLayout(t, func(t *testing.T, lay layout) {
		// Level 3 gives children only to the middle of the three level-2
		// embeddings: (10,5) and (20,7) have none, (10,6) has [8].
		c, _ := stackOf(t, lay, []uint32{10, 20},
			[][]uint32{{5, 6}, {7}},
			[][]uint32{{}, {8}, {}})
		w, err := NewWalker(c, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		emb, ch, ok := w.Next()
		if !ok || !reflect.DeepEqual(append([]uint32(nil), emb...), []uint32{10, 6, 8}) {
			t.Fatalf("got %v ok=%v", emb, ok)
		}
		if ch != 1 {
			t.Fatalf("changedFrom = %d, want 1", ch)
		}
		if _, _, ok := w.Next(); ok {
			t.Fatal("walker emitted past end")
		}
	})
}

func TestPushValidation(t *testing.T) {
	c := NewCSE(NewBaseLevel([]uint32{1, 2, 3}))
	// Mismatched group count (2 groups for 3 embeddings).
	_, hl, _ := buildLevels(t, nil, [][]uint32{{9}, {}}, 1, layoutRaw)
	if err := c.Push(hl); err == nil {
		t.Fatal("mismatched level accepted")
	}
	if c.Depth() != 1 {
		t.Fatalf("depth = %d after a refused push", c.Depth())
	}
}

// TestMemLevelValidate pins the structural checks of the reference level
// every conformance and walker test builds against.
func TestMemLevelValidate(t *testing.T) {
	bad := []*MemLevel{
		{Verts: []uint32{1}, Offs: []uint64{1, 1}},    // not starting at 0
		{Verts: []uint32{1}, Offs: []uint64{0, 2, 1}}, // not monotone
		{Verts: []uint32{1}, Offs: []uint64{0, 0}},    // wrong end
	}
	for i, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	good := &MemLevel{Verts: []uint32{9, 9}, Offs: []uint64{0, 0, 2}}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestParentOf(t *testing.T) {
	forEachLayout(t, func(t *testing.T, lay layout) {
		_, hl, _ := buildLevels(t, nil, [][]uint32{{9, 9}, {}, {9, 9}}, 2, lay)
		want := []int{0, 0, 2, 2}
		for i, p := range want {
			if got, err := hl.ParentOf(i); err != nil || got != p {
				t.Errorf("ParentOf(%d) = %d, %v, want %d", i, got, err, p)
			}
		}
	})
}

// TestBytes: a raw level is charged 4 bytes per unit and 8 per group bound,
// the base level 4 bytes per unit, and the CSE the sum of its levels.
func TestBytes(t *testing.T) {
	c := fig4CSE(t, layoutRaw)
	if got := c.Level(1).Bytes(); got != 5*4 {
		t.Fatalf("base Bytes = %d, want %d", got, 5*4)
	}
	want := int64(5*4) + int64(7*4+5*8) + int64(8*4+7*8)
	if c.Bytes() != want {
		t.Fatalf("Bytes = %d, want %d", c.Bytes(), want)
	}
}

// randStack builds a random trie of the given depth over a random base of up
// to maxBase units, each parent getting 0..3 children.
func randStack(t testing.TB, rng *rand.Rand, lay layout, depth, maxBase int) (*CSE, []uint32, []*MemLevel) {
	t.Helper()
	units := randUnits(rng, 1+rng.Intn(maxBase))
	var levels [][][]uint32
	prev := len(units)
	for l := 2; l <= depth; l++ {
		groups := make([][]uint32, prev)
		n := 0
		for p := range groups {
			groups[p] = randUnits(rng, rng.Intn(4))
			n += len(groups[p])
		}
		levels = append(levels, groups)
		prev = n
	}
	c, refs := stackOf(t, lay, units, levels...)
	return c, units, refs
}

// randRange returns a random sub-range of [0, n).
func randRange(rng *rand.Rand, n int) (lo, hi int) {
	lo = rng.Intn(n + 1)
	return lo, lo + rng.Intn(n-lo+1)
}

// TestWalkerRandomTrie builds random tries and checks the walker against
// Extract at every index and against the reference walk over random
// sub-ranges.
func TestWalkerRandomTrie(t *testing.T) {
	forEachLayout(t, func(t *testing.T, lay layout) {
		rng := rand.New(rand.NewSource(5))
		for trial := 0; trial < 40; trial++ {
			depth := 2 + rng.Intn(3)
			c, units, refs := randStack(t, rng, lay, depth, 6)
			n := c.Top().Len()
			all, _ := refWalk(units, refs, 0, n)
			got := make([]uint32, depth)
			for i, want := range all {
				if err := c.Extract(i, got); err != nil {
					t.Fatalf("trial %d Extract(%d): %v", trial, i, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d Extract(%d) = %v, want %v", trial, i, got, want)
				}
			}
			lo, hi := randRange(rng, n)
			want, wantC := refWalk(units, refs, lo, hi)
			if embs, chs := walkAll(t, c, lo, hi); !reflect.DeepEqual(embs, want) || !reflect.DeepEqual(chs, wantC) {
				t.Fatalf("trial %d range [%d,%d): walk %v %v\nwant %v %v", trial, lo, hi, embs, chs, want, wantC)
			}
		}
	})
}

// TestWalkerNextRunMatchesNext: the batch API must enumerate exactly the
// embeddings of the unit API, with changedFrom applying to the first leaf of
// each run and Depth() within a run.
func TestWalkerNextRunMatchesNext(t *testing.T) {
	forEachLayout(t, func(t *testing.T, lay layout) {
		rng := rand.New(rand.NewSource(17))
		for trial := 0; trial < 30; trial++ {
			depth := 1 + rng.Intn(4)
			c, _, _ := randStack(t, rng, lay, depth, 8)
			lo, hi := randRange(rng, c.Top().Len())

			type emit struct {
				emb []uint32
				ch  int
			}
			var unit, batch []emit
			w, err := NewWalker(c, lo, hi)
			if err != nil {
				t.Fatal(err)
			}
			for {
				emb, ch, ok := w.Next()
				if !ok {
					break
				}
				unit = append(unit, emit{append([]uint32(nil), emb...), ch})
			}
			if err := w.Err(); err != nil {
				t.Fatal(err)
			}
			if err := w.Reset(c, lo, hi); err != nil {
				t.Fatal(err)
			}
			for {
				emb, ch, leaves, ok := w.NextRun()
				if !ok {
					break
				}
				for _, u := range leaves {
					emb[depth-1] = u
					batch = append(batch, emit{append([]uint32(nil), emb...), ch})
					ch = depth
				}
			}
			if err := w.Err(); err != nil {
				t.Fatal(err)
			}
			w.Close()
			if !reflect.DeepEqual(unit, batch) {
				t.Fatalf("trial %d range [%d,%d): unit %v\nbatch %v", trial, lo, hi, unit, batch)
			}
		}
	})
}

func randUnits(rng *rand.Rand, n int) []uint32 {
	s := make([]uint32, n)
	for i := range s {
		s[i] = uint32(rng.Intn(100))
	}
	return s
}
