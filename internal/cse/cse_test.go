package cse

import (
	"math/rand"
	"reflect"
	"testing"
)

// fig4CSE builds the exact CSE of the paper's Fig. 3/Fig. 4 running example
// (vertex ids shifted to 0-based): 5 1-embeddings, 7 canonical 2-embeddings,
// 8 canonical 3-embeddings.
func fig4CSE(t testing.TB) *CSE {
	t.Helper()
	c := New(NewBaseLevel([]uint32{0, 1, 2, 3, 4}))
	l2 := &MemLevel{
		Verts: []uint32{1, 4, 2, 4, 3, 4, 4},
		Offs:  []uint64{0, 2, 4, 6, 7, 7},
	}
	if err := l2.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := c.Push(l2); err != nil {
		t.Fatal(err)
	}
	l3 := &MemLevel{
		Verts: []uint32{2, 4, 2, 3, 3, 4, 3, 4},
		Offs:  []uint64{0, 2, 4, 6, 7, 8, 8, 8},
	}
	if err := l3.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := c.Push(l3); err != nil {
		t.Fatal(err)
	}
	return c
}

// fig3Embeddings are the 8 canonical 3-embeddings s13..s20 of paper Fig. 3,
// 0-based, in CSE order.
var fig3Embeddings = [][]uint32{
	{0, 1, 2}, {0, 1, 4}, {0, 4, 2}, {0, 4, 3},
	{1, 2, 3}, {1, 2, 4}, {1, 4, 3}, {2, 3, 4},
}

func TestExtractPaperExample(t *testing.T) {
	c := fig4CSE(t)
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
}

func TestExtractErrors(t *testing.T) {
	c := fig4CSE(t)
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
	c := fig4CSE(t)
	w, err := NewWalker(c, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	var got [][]uint32
	var changes []int
	for {
		emb, ch, ok := w.Next()
		if !ok {
			break
		}
		got = append(got, append([]uint32(nil), emb...))
		changes = append(changes, ch)
	}
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, fig3Embeddings) {
		t.Fatalf("walk = %v\nwant %v", got, fig3Embeddings)
	}
	// First emission resets everything; leaf-only advances report level 3;
	// prefix changes report the deepest changed level.
	wantChanges := []int{1, 3, 2, 3, 1, 3, 2, 1}
	if !reflect.DeepEqual(changes, wantChanges) {
		t.Fatalf("changedFrom = %v, want %v", changes, wantChanges)
	}
}

func TestWalkerSubRanges(t *testing.T) {
	c := fig4CSE(t)
	// Every split of [0,8) must concatenate to the full enumeration.
	for split := 0; split <= 8; split++ {
		var got [][]uint32
		for _, r := range [][2]int{{0, split}, {split, 8}} {
			w, err := NewWalker(c, r[0], r[1])
			if err != nil {
				t.Fatalf("split %d: %v", split, err)
			}
			for {
				emb, _, ok := w.Next()
				if !ok {
					break
				}
				got = append(got, append([]uint32(nil), emb...))
			}
			if err := w.Err(); err != nil {
				t.Fatalf("split %d: %v", split, err)
			}
			w.Close()
		}
		if !reflect.DeepEqual(got, fig3Embeddings) {
			t.Fatalf("split %d: walk = %v", split, got)
		}
	}
}

func TestWalkerEmptyRange(t *testing.T) {
	c := fig4CSE(t)
	w, err := NewWalker(c, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := w.Next(); ok {
		t.Fatal("empty range emitted an embedding")
	}
}

func TestWalkerRangeValidation(t *testing.T) {
	c := fig4CSE(t)
	for _, r := range [][2]int{{-1, 3}, {0, 9}, {5, 3}} {
		if _, err := NewWalker(c, r[0], r[1]); err == nil {
			t.Errorf("range %v accepted", r)
		}
	}
}

func TestWalkerSkipsEmptyGroups(t *testing.T) {
	// Level 2 where parents 0 and 2 have no children at level 3.
	c := New(NewBaseLevel([]uint32{10, 20}))
	if err := c.Push(&MemLevel{Verts: []uint32{5, 6, 7}, Offs: []uint64{0, 2, 3}}); err != nil {
		t.Fatal(err)
	}
	// children: of (10,5): none; of (10,6): [8]; of (20,7): none → then (20,7)? wait
	// parents at level 2 are indices 0..2: groups sizes 0,1,0... last parent must
	// close at len(verts)=1.
	if err := c.Push(&MemLevel{Verts: []uint32{8}, Offs: []uint64{0, 0, 1, 1}}); err != nil {
		t.Fatal(err)
	}
	w, err := NewWalker(c, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
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
}

func TestPushValidation(t *testing.T) {
	c := New(NewBaseLevel([]uint32{1, 2, 3}))
	// Mismatched group count (2 groups for 3 embeddings).
	err := c.Push(&MemLevel{Verts: []uint32{9}, Offs: []uint64{0, 1, 1}})
	if err == nil {
		t.Fatal("mismatched level accepted")
	}
}

func TestPopTop(t *testing.T) {
	c := fig4CSE(t)
	if err := c.PopTop(); err != nil {
		t.Fatal(err)
	}
	if c.Depth() != 2 {
		t.Fatalf("depth = %d after pop", c.Depth())
	}
	one := New(NewBaseLevel([]uint32{1}))
	if err := one.PopTop(); err == nil {
		t.Fatal("popped base level")
	}
}

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
}

func TestParentOf(t *testing.T) {
	m := &MemLevel{Verts: []uint32{9, 9, 9, 9}, Offs: []uint64{0, 2, 2, 4}}
	want := []int{0, 0, 2, 2}
	for i, p := range want {
		if got, err := m.ParentOf(i); err != nil || got != p {
			t.Errorf("ParentOf(%d) = %d, %v, want %d", i, got, err, p)
		}
	}
}

func TestBytes(t *testing.T) {
	c := fig4CSE(t)
	want := int64(5*4) + int64(7*4+6*8) + int64(8*4+8*8)
	if c.Bytes() != want {
		t.Fatalf("Bytes = %d, want %d", c.Bytes(), want)
	}
}

// TestWalkerRandomTrie builds random tries and checks the walker against
// Extract at every index and for random sub-ranges.
func TestWalkerRandomTrie(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 40; trial++ {
		depth := 2 + rng.Intn(3)
		c := New(NewBaseLevel(randUnits(rng, 1+rng.Intn(6))))
		for l := 2; l <= depth; l++ {
			prev := c.Top().Len()
			var verts []uint32
			offs := make([]uint64, 1, prev+1)
			for p := 0; p < prev; p++ {
				sz := rng.Intn(4)
				verts = append(verts, randUnits(rng, sz)...)
				offs = append(offs, uint64(len(verts)))
			}
			lv := &MemLevel{Verts: verts, Offs: offs}
			if err := lv.Validate(); err != nil {
				t.Fatal(err)
			}
			if err := c.Push(lv); err != nil {
				t.Fatal(err)
			}
		}
		n := c.Top().Len()
		want := make([][]uint32, n)
		for i := 0; i < n; i++ {
			want[i] = make([]uint32, depth)
			if err := c.Extract(i, want[i]); err != nil {
				t.Fatalf("trial %d Extract(%d): %v", trial, i, err)
			}
		}
		lo := 0
		if n > 0 {
			lo = rng.Intn(n + 1)
		}
		hi := lo + rng.Intn(n-lo+1)
		w, err := NewWalker(c, lo, hi)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		i := lo
		for {
			emb, _, ok := w.Next()
			if !ok {
				break
			}
			if !reflect.DeepEqual(append([]uint32(nil), emb...), want[i]) {
				t.Fatalf("trial %d index %d: walk %v, extract %v", trial, i, emb, want[i])
			}
			i++
		}
		if err := w.Err(); err != nil {
			t.Fatal(err)
		}
		if i != hi {
			t.Fatalf("trial %d: emitted %d..%d, want up to %d", trial, lo, i, hi)
		}
		w.Close()
	}
}

// TestWalkerNextRunMatchesNext: the batch API must enumerate exactly the
// embeddings of the unit API, with changedFrom applying to the first leaf of
// each run and Depth() within a run.
func TestWalkerNextRunMatchesNext(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 30; trial++ {
		depth := 1 + rng.Intn(4)
		c := New(NewBaseLevel(randUnits(rng, 1+rng.Intn(8))))
		for l := 2; l <= depth; l++ {
			prev := c.Top().Len()
			var verts []uint32
			offs := make([]uint64, 1, prev+1)
			for p := 0; p < prev; p++ {
				verts = append(verts, randUnits(rng, rng.Intn(4))...)
				offs = append(offs, uint64(len(verts)))
			}
			if err := c.Push(&MemLevel{Verts: verts, Offs: offs}); err != nil {
				t.Fatal(err)
			}
		}
		n := c.Top().Len()
		lo := 0
		if n > 0 {
			lo = rng.Intn(n + 1)
		}
		hi := lo + rng.Intn(n-lo+1)

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
}

func randUnits(rng *rand.Rand, n int) []uint32 {
	s := make([]uint32, n)
	for i := range s {
		s[i] = uint32(rng.Intn(100))
	}
	return s
}
