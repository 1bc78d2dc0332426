package storage

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"kaleido/internal/memtrack"
	"kaleido/internal/run"
)

// The tests below pin the behaviour of spilled parts on an all-disk hybrid
// level (budget ≤ 0: every part migrates on its first append).

// appendGroup stores one group of children into part p the way a producer
// does: it appends them to the buffer NextGroup hands out and commits it.
func appendGroup(p *hybridPartWriter, children []uint32) error {
	buf, err := p.NextGroup()
	if err != nil {
		return err
	}
	p.CommitGroup(append(buf, children...))
	return nil
}

// walkAll collects every embedding a walker over [lo, hi) of c produces,
// with its change index: the run's changedFrom for the first leaf of a run,
// Depth() for the rest, whose embeddings differ from the previous one only
// at the leaf.
func walkAll(t testing.TB, c *CSE, lo, hi int) ([][]uint32, []int) {
	t.Helper()
	w, err := NewWalker(c, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	var embs [][]uint32
	var chs []int
	for {
		emb, ch, leaves, ok := w.NextRun()
		if !ok {
			break
		}
		for _, u := range leaves {
			emb[len(emb)-1] = u
			embs = append(embs, append([]uint32(nil), emb...))
			chs = append(chs, ch)
			ch = len(emb)
		}
	}
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	return embs, chs
}

// TestWalkerMixedLevelStack walks 3-level stacks (the §4.1 hybrid
// configuration) with every combination of raw, all-disk and mixed-residency
// levels at depths 2 and 3, and compares to the reference walk over the plain
// arrays.
func TestWalkerMixedLevelStack(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	units := base(40)
	groups2 := randGroups(rng, len(units))
	groups2[0] = []uint32{1, 2, 3} // ensure a non-empty level
	ml2, rl2, _ := buildLevels(t, nil, groups2, 2, layoutRaw)
	_, dl2, _ := buildLevels(t, nil, groups2, 2, layoutDisk)
	_, hl2, _ := buildLevels(t, nil, groups2, 3, layoutMixed)
	groups3 := randGroups(rng, len(ml2.Verts))
	groups3[len(groups3)-1] = []uint32{7, 8} // exercise the last group
	ml3, rl3, _ := buildLevels(t, nil, groups3, 3, layoutRaw)
	_, dl3, _ := buildLevels(t, nil, groups3, 3, layoutDisk)
	_, hl3, _ := buildLevels(t, nil, groups3, 4, layoutMixed)

	stack := func(l2, l3 *HybridLevel) *CSE {
		c := NewCSE(NewBaseLevel(units))
		if err := c.Push(l2); err != nil {
			t.Fatal(err)
		}
		if err := c.Push(l3); err != nil {
			t.Fatal(err)
		}
		return c
	}
	n := len(ml3.Verts)
	variants := map[string]*CSE{
		"raw2-raw3":   stack(rl2, rl3),
		"disk2-raw3":  stack(dl2, rl3),
		"raw2-disk3":  stack(rl2, dl3),
		"disk2-disk3": stack(dl2, dl3),
		"hyb2-raw3":   stack(hl2, rl3),
		"raw2-hyb3":   stack(rl2, hl3),
		"hyb2-hyb3":   stack(hl2, hl3),
		"disk2-hyb3":  stack(dl2, hl3),
	}
	for _, r := range [][2]int{{0, n}, {1, n}, {5, n / 2}, {n / 3, 2 * n / 3}, {n - 1, n}} {
		wantE, wantC := refWalk(units, []*MemLevel{ml2, ml3}, r[0], r[1])
		for name, c := range variants {
			gotE, gotC := walkAll(t, c, r[0], r[1])
			if !reflect.DeepEqual(gotE, wantE) || !reflect.DeepEqual(gotC, wantC) {
				t.Fatalf("%s range %v: walk differs from the reference", name, r)
			}
		}
	}
}

// TestIOAccounting: the write counter must equal the bytes the spilled parts
// occupy, and streaming the level back must read at least its vert blocks.
func TestIOAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	groups := randGroups(rng, 200)
	_, dl, tracker := buildLevels(t, nil, groups, 2, layoutDisk)
	_, w := tracker.IOTotals()
	if want := dl.DiskBytesPhysical(); w != want || w == 0 {
		t.Fatalf("write bytes = %d, want %d", w, want)
	}
	if _, err := readVerts(t, dl.VertBlocks(0, dl.Len())); err != nil {
		t.Fatal(err)
	}
	var physVerts int64
	for i := range dl.parts {
		physVerts += dl.parts[i].comp.physVerts
	}
	if r, _ := tracker.IOTotals(); r < physVerts {
		t.Fatalf("read bytes = %d, want ≥ %d", r, physVerts)
	}
}

func TestTruncatedVertFile(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	groups := randGroups(rng, 100)
	_, dl, _ := buildLevels(t, nil, groups, 1, layoutDisk)
	// Truncate the vert file behind the level's back.
	if err := os.Truncate(dl.parts[0].vf.Name(), dl.parts[0].comp.physVerts/2); err != nil {
		t.Fatal(err)
	}
	got, err := readVerts(t, dl.VertBlocks(0, dl.Len()))
	if !errors.Is(err, ErrSpillCorrupt) {
		t.Fatalf("read %d/%d units from truncated file, err = %v", len(got), dl.Len(), err)
	}
}

// TestFinishDetectsShortFiles: a part whose Flush was "forgotten" still has
// its tail blocks open — nothing (or not everything) reached the files — and
// Finish must refuse to assemble a level whose directory does not cover its
// values, removing the files.
func TestFinishDetectsShortFiles(t *testing.T) {
	tracker := memtrack.New()
	q := NewWriteQueue(0, tracker)
	defer q.Close()
	dir := t.TempDir()
	db := NewHybridLevelBuilder(&run.Env{Tracker: tracker}, dir, q, 0)
	db.Reset(3, 1, nil)
	if err := appendGroup(db.Part(0), []uint32{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Finish(); err == nil {
		t.Fatal("Finish accepted un-flushed part")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("abort left %d files behind", len(entries))
	}
}

// TestBlockCursorsAcrossEmptyParts streams an all-disk level whose part
// sequence has completely empty parts in the middle and at the end, and
// walks a CSE over it: the walker must skip the empty groups.
func TestBlockCursorsAcrossEmptyParts(t *testing.T) {
	tracker := memtrack.New()
	q := NewWriteQueue(0, tracker)
	defer q.Close()
	db := NewHybridLevelBuilder(&run.Env{Tracker: tracker}, t.TempDir(), q, 0)
	db.Reset(2, 5, nil)
	db.blockSize = 64
	// Parts 0 and 3 get groups; parts 1, 2, 4 stay empty.
	for _, g := range [][]uint32{{1, 2, 3}, {}, {4}} {
		if err := appendGroup(db.Part(0), g); err != nil {
			t.Fatal(err)
		}
	}
	for _, g := range [][]uint32{{5}, {}, {6, 7, 8, 9}} {
		if err := appendGroup(db.Part(3), g); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		if err := db.Part(i).Flush(); err != nil {
			t.Fatal(err)
		}
	}
	dl, err := db.Finish()
	if err != nil {
		t.Fatal(err)
	}
	defer dl.Close()
	if dl.Len() != 9 || dl.Groups() != 6 || dl.MemParts() != 0 {
		t.Fatalf("shape %d/%d with %d mem parts, want 9/6 all on disk", dl.Len(), dl.Groups(), dl.MemParts())
	}
	if verts, err := readVerts(t, dl.VertBlocks(0, 9)); err != nil || !reflect.DeepEqual(verts, []uint32{1, 2, 3, 4, 5, 6, 7, 8, 9}) {
		t.Fatalf("verts = %v, %v", verts, err)
	}
	if bounds, err := readBounds(dl.BoundBlocks(0)); err != nil || !reflect.DeepEqual(bounds, []uint64{3, 3, 4, 5, 5, 9}) {
		t.Fatalf("bounds = %v, %v", bounds, err)
	}
	c := NewCSE(NewBaseLevel([]uint32{10, 11, 12, 13, 14, 15}))
	if err := c.Push(dl); err != nil {
		t.Fatal(err)
	}
	want := [][]uint32{
		{10, 1}, {10, 2}, {10, 3}, {12, 4}, {13, 5}, {15, 6}, {15, 7}, {15, 8}, {15, 9},
	}
	if got, _ := walkAll(t, c, 0, 9); !reflect.DeepEqual(got, want) {
		t.Fatalf("embeddings = %v, want %v", got, want)
	}
}

// TestEmptyParts: all groups in part 0, parts 1 and 2 completely empty —
// empty parts still migrate in the all-disk regime, as empty file pairs.
func TestEmptyParts(t *testing.T) {
	groups := [][]uint32{{1, 2}, {}, {3}}
	tracker := memtrack.New()
	q := NewWriteQueue(0, tracker)
	defer q.Close()
	db := NewHybridLevelBuilder(&run.Env{Tracker: tracker}, t.TempDir(), q, 0)
	db.Reset(2, 3, nil)
	for _, g := range groups {
		if err := appendGroup(db.Part(0), g); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if err := db.Part(i).Flush(); err != nil {
			t.Fatal(err)
		}
	}
	lvl, err := db.Finish()
	if err != nil {
		t.Fatal(err)
	}
	defer lvl.Close()
	if lvl.Len() != 3 || lvl.Groups() != 3 || lvl.DiskParts() != 3 {
		t.Fatalf("shape %d/%d, %d disk parts", lvl.Len(), lvl.Groups(), lvl.DiskParts())
	}
	if got, err := readVerts(t, lvl.VertBlocks(0, 3)); err != nil || !reflect.DeepEqual(got, []uint32{1, 2, 3}) {
		t.Fatalf("verts = %v, %v", got, err)
	}
}

// TestCloseRemovesFiles: Close must delete exactly the files of the migrated
// parts and be idempotent; memory parts own no files.
func TestCloseRemovesFiles(t *testing.T) {
	for _, lay := range []layout{layoutDisk, layoutMixed} {
		tracker := memtrack.New()
		q := NewWriteQueue(0, tracker)
		defer q.Close()
		dir := t.TempDir()
		hb := NewHybridLevelBuilder(&run.Env{Tracker: tracker}, dir, q, lay.budget)
		hb.Reset(5, 3, nil)
		wantFiles := 0
		for i := 0; i < 3; i++ {
			if lay.at(i) == 'd' {
				hb.parts[i].spillReq.Store(true)
				wantFiles += 2
			}
			if err := appendGroup(hb.Part(i), []uint32{uint32(i), uint32(i + 10)}); err != nil {
				t.Fatal(err)
			}
			if err := hb.Part(i).Flush(); err != nil {
				t.Fatal(err)
			}
		}
		lvl, err := hb.Finish()
		if err != nil {
			t.Fatal(err)
		}
		files, err := filepath.Glob(filepath.Join(dir, "*"))
		if err != nil {
			t.Fatal(err)
		}
		if len(files) != wantFiles { // one vert/cnt pair per spilled part, nothing for mem parts
			t.Fatalf("%s: files before Close: %v, want %d", lay.name, files, wantFiles)
		}
		if err := lvl.Close(); err != nil {
			t.Fatal(err)
		}
		if err := lvl.Close(); err != nil { // idempotent
			t.Fatal(err)
		}
		if files, _ = filepath.Glob(filepath.Join(dir, "*")); len(files) != 0 {
			t.Fatalf("%s: Close left files: %v", lay.name, files)
		}
	}
}

// TestParentOfSurfacesCorruption: a broken cnt file must turn into an error
// from ParentOf — and hence a failed walker seed — not a silent wrong parent.
func TestParentOfSurfacesCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	groups := randGroups(rng, 120)
	_, dl, _ := buildLevels(t, nil, groups, 1, layoutDisk)
	if err := os.Truncate(dl.parts[0].cf.Name(), 1); err != nil {
		t.Fatal(err)
	}
	if _, err := dl.ParentOf(dl.Len() - 1); !errors.Is(err, ErrSpillCorrupt) {
		t.Fatalf("ParentOf on truncated cnt file: err = %v", err)
	}
	c := NewCSE(NewBaseLevel(base(dl.Groups())))
	if err := c.Push(dl); err != nil {
		t.Fatal(err)
	}
	if _, err := NewWalker(c, 1, dl.Len()); err == nil {
		t.Fatal("walker seeded from corrupt level without error")
	}
}

// plainFile adapts a bare *os.File to vfs.File for tests that need a file
// the vfs.OS constructor would refuse to hand out (e.g. read-only).
type plainFile struct{ *os.File }

func (f plainFile) Size() (int64, error) {
	st, err := f.Stat()
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

func TestWriteQueueErrorPropagation(t *testing.T) {
	q := NewWriteQueue(0, nil)
	defer q.Close()
	f, err := os.Open(os.DevNull) // read-only: writes must fail
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	buf := q.GetBuf()
	buf = append(buf, 1, 2, 3, 4)
	q.Submit(plainFile{f}, buf)
	if err := q.Barrier(); err == nil {
		t.Fatal("write to read-only file reported no error")
	}
	if !errors.Is(q.Err(), ErrSpillIO) {
		t.Fatalf("queue error %v does not wrap ErrSpillIO", q.Err())
	}
	if !q.Failed() {
		t.Fatal("queue did not latch Failed after write give-up")
	}
	if err := q.Reset(); err == nil {
		t.Fatal("Reset returned no error from the failed operation")
	}
	if q.Err() != nil || q.Failed() {
		t.Fatal("Reset left error state behind")
	}
}

// TestWriteQueueAbort checks the cancellation contract: after Abort, pending
// and new submissions are discarded (buffers recycled, nothing written) while
// barrier jobs still drain; Reset re-arms the queue and clears its error.
func TestWriteQueueAbort(t *testing.T) {
	dir := t.TempDir()
	f, err := os.Create(filepath.Join(dir, "q.bin"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	q := NewWriteQueue(64, nil)
	defer q.Close()

	buf := append(q.GetBuf(), 1, 2, 3, 4)
	q.Submit(plainFile{f}, buf)
	if err := q.Barrier(); err != nil {
		t.Fatal(err)
	}

	q.Abort()
	buf = append(q.GetBuf(), 5, 6, 7, 8)
	q.Submit(plainFile{f}, buf)
	if err := q.Barrier(); err != nil { // barrier drains even while aborted
		t.Fatal(err)
	}
	if st, _ := f.Stat(); st.Size() != 4 {
		t.Fatalf("aborted write landed: %d bytes", st.Size())
	}

	if err := q.Reset(); err != nil {
		t.Fatal(err)
	}
	buf = append(q.GetBuf(), 9, 10)
	q.Submit(plainFile{f}, buf)
	if err := q.Barrier(); err != nil {
		t.Fatal(err)
	}
	if st, _ := f.Stat(); st.Size() != 6 {
		t.Fatalf("post-reset write missing: %d bytes", st.Size())
	}
}

// TestWriteQueueResetClearsError checks that a write error recorded before
// Abort does not leak into the next operation after Reset.
func TestWriteQueueResetClearsError(t *testing.T) {
	dir := t.TempDir()
	f, err := os.Create(filepath.Join(dir, "closed.bin"))
	if err != nil {
		t.Fatal(err)
	}
	f.Close() // closed: the write must fail
	q := NewWriteQueue(64, nil)
	defer q.Close()
	q.Submit(plainFile{f}, append(q.GetBuf(), 1))
	if err := q.Barrier(); err == nil {
		t.Fatal("write to closed file succeeded")
	}
	q.Abort()
	if err := q.Reset(); err == nil {
		t.Fatal("Reset returned no error to clear")
	}
	if err := q.Err(); err != nil {
		t.Fatalf("error survived Reset: %v", err)
	}
}
