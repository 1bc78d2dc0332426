package storage

import (
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"kaleido/internal/memtrack"
	"kaleido/internal/run"
)

// deltaShape is one random CSE of a plain level 2 and delta levels 3 and 4.
type deltaShape struct {
	name   string
	units  int // base units
	fan    int // level 2: mean group size
	own    int // delta levels: mean own children per group
	wide   int // every wide-th group of the top level gets 5000 own children (0: none)
	nparts int
	stride int // Extract and UnitAt probe every stride-th index
}

// laterOf returns the units after embedding x in its group of the
// reference level m: the rest of a delta group over m.
func laterOf(m *MemLevel, x int) []uint32 {
	return m.Verts[x+1 : m.Offs[refParent(m, x)+1]]
}

// randOwn returns about n ascending units, none of them in later.
func randOwn(rng *rand.Rand, n int, later []uint32) []uint32 {
	var own []uint32
	for i := 0; i < n; i++ {
		own = append(own, rng.Uint32()%(1<<20))
	}
	slices.Sort(own)
	own = slices.Compact(own)
	return slices.DeleteFunc(own, func(v uint32) bool {
		_, found := slices.BinarySearch(later, v)
		return found
	})
}

// buildDelta writes a delta level over parent (reference pm, hybrid ph)
// through a builder whose parts end up where lay says; late, when set,
// marks every part for disk halfway through its groups instead, so the
// migration drains groups (and their seek index entries) written in memory.
// It returns the reference level, full groups, and the hybrid one.
func buildDelta(t *testing.T, rng *rand.Rand, pm *MemLevel, ph *HybridLevel, sh deltaShape, level int, lay layout, late bool) (*MemLevel, *HybridLevel) {
	t.Helper()
	groups := len(pm.Verts)
	owns := make([][]uint32, groups)
	ml := &MemLevel{Offs: []uint64{0}}
	for x := range owns {
		n := rng.Intn(2*sh.own + 1)
		if level == 4 && sh.wide > 0 && x%sh.wide == sh.wide/2 {
			// Spans codec blocks and prefetch windows. Only at the top:
			// every unit of a wide group below would be a leaf with up to
			// 5000 later siblings, each a group of the level above.
			n = 5000
		}
		later := laterOf(pm, x)
		owns[x] = randOwn(rng, n, later)
		full := append(slices.Clone(owns[x]), later...)
		slices.Sort(full)
		ml.Verts = append(ml.Verts, full...)
		ml.Offs = append(ml.Offs, uint64(len(ml.Verts)))
	}
	var (
		tracker *memtrack.Tracker
		q       *WriteQueue
		dir     string
	)
	if !lay.bare {
		tracker = memtrack.New()
		q = NewWriteQueue(64, tracker)
		t.Cleanup(func() { q.Close() })
		dir = t.TempDir()
	}
	hb := NewHybridLevelBuilder(&run.Env{Tracker: tracker}, dir, q, lay.budget)
	hb.Reset(level, sh.nparts, ph)
	hb.blockSize = 128
	per := (groups + sh.nparts - 1) / sh.nparts
	for i := 0; i < sh.nparts; i++ {
		p := hb.Part(i)
		if lay.at(i) == 'd' && !late {
			p.spillReq.Store(true)
		}
		lo, hi := min(i*per, groups), min(i*per+per, groups)
		for x := lo; x < hi; x++ {
			if late && x == (lo+hi)/2 {
				p.spillReq.Store(true)
			}
			buf, err := p.NextGroup()
			if err != nil {
				t.Fatal(err)
			}
			p.CommitOwn(append(buf, owns[x]...), int(ml.Offs[x+1]-ml.Offs[x]))
		}
		if err := p.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	hl, err := hb.Finish()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { hl.Close() })
	if !hl.Delta() || hl.Len() != len(ml.Verts) || hl.Groups() != groups {
		t.Fatalf("level %d: delta %v, %d units in %d groups, want %d in %d", level, hl.Delta(), hl.Len(), hl.Groups(), len(ml.Verts), groups)
	}
	return ml, hl
}

// TestDeltaConformance holds delta levels to the full groups they stand
// for: a plain level 2 and delta levels 3 and 4 over it, built from random
// groups in each regime — unbudgeted, raw, mixed, all on disk and migrated
// mid-part — must walk, from every split of the top level into 1..8 ranges
// (ranges start mid-group) walked by 1, 2 and 4 goroutines at once, exactly
// as the reference walk over the full arrays does, embeddings and change
// levels alike, and Extract must read the embeddings back: every one of the
// small shape, a stride of the wide one, whose parts hold more than CntChunk
// groups — a probe there rebuilds its group through the own-stream seek
// index, up to CntChunk group counts per level, so every index would take
// minutes. The wide shape also has groups of 5000 own children, across codec
// blocks and 128-byte prefetch windows, and its walks seed through the seek
// index.
func TestDeltaConformance(t *testing.T) {
	shapes := []deltaShape{
		{name: "small", units: 60, fan: 3, own: 2, nparts: 3, stride: 1},
		{name: "wide", units: 1500, fan: 4, own: 1, wide: 4001, nparts: 2, stride: 397},
	}
	lays := []struct {
		lay  layout
		late bool
	}{{layoutUnbudgeted, false}, {layoutRaw, false}, {layoutMixed, false}, {layoutDisk, false}, {layoutRaw, true}}
	for _, sh := range shapes {
		for _, ly := range lays {
			name := sh.name + "/" + ly.lay.name
			if ly.late {
				name += "-late"
			}
			t.Run(name, func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(len(name))))
				units := base(sh.units)
				groups2 := make([][]uint32, sh.units)
				for i := range groups2 {
					groups2[i] = randOwn(rng, rng.Intn(2*sh.fan+1), nil)
				}
				ml2, hl2, _ := buildLevels(t, nil, groups2, sh.nparts, ly.lay)
				ml3, hl3 := buildDelta(t, rng, ml2, hl2, sh, 3, ly.lay, ly.late)
				ml4, hl4 := buildDelta(t, rng, ml3, hl3, sh, 4, ly.lay, ly.late)
				if ly.lay.name == "disk" && hl4.MemParts() != 0 {
					t.Fatalf("all-disk delta level kept %d parts in memory", hl4.MemParts())
				}
				if ly.late && hl4.DiskParts() == 0 {
					t.Fatal("no part migrated mid-build")
				}
				c := NewCSE(NewBaseLevel(units))
				for _, l := range []*HybridLevel{hl2, hl3, hl4} {
					if err := c.Push(l); err != nil {
						t.Fatal(err)
					}
				}
				checkDeltaWalks(t, c, units, []*MemLevel{ml2, ml3, ml4})
				checkDeltaExtract(t, c, units, []*MemLevel{ml2, ml3, ml4}, sh.stride)
			})
		}
	}
}

// TestPushRejectsForeignParent: a delta level pushed onto a CSE whose top
// is not the level it was built over is refused, even when the group counts
// agree, since the Walker and Extract would then rebuild different groups.
func TestPushRejectsForeignParent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sh := deltaShape{units: 40, fan: 3, own: 2, nparts: 2}
	groups2 := make([][]uint32, sh.units)
	for i := range groups2 {
		groups2[i] = randOwn(rng, rng.Intn(2*sh.fan+1), nil)
	}
	ml2, hl2, _ := buildLevels(t, nil, groups2, sh.nparts, layoutUnbudgeted)
	_, other, _ := buildLevels(t, nil, groups2, sh.nparts, layoutUnbudgeted)
	_, hl3 := buildDelta(t, rng, ml2, hl2, sh, 3, layoutUnbudgeted, false)
	c := NewCSE(NewBaseLevel(base(sh.units)))
	if err := c.Push(other); err != nil {
		t.Fatal(err)
	}
	if err := c.Push(hl3); err == nil {
		t.Fatal("Push accepted a delta level built over another level than the top")
	}
}

// checkDeltaWalks walks the top level of c split into 1..8 random ranges,
// by 1, 2 and 4 goroutines at once, against the reference walk.
func checkDeltaWalks(t *testing.T, c *CSE, units []uint32, levels []*MemLevel) {
	t.Helper()
	n := c.Top().Len()
	rng := rand.New(rand.NewSource(int64(n)))
	for split := 1; split <= 8; split++ {
		cuts := []int{0, n}
		for i := 1; i < split; i++ {
			cuts = append(cuts, rng.Intn(n+1))
		}
		slices.Sort(cuts)
		wantEmbs := make([][][]uint32, split)
		wantChs := make([][]int, split)
		for r := 0; r < split; r++ {
			wantEmbs[r], wantChs[r] = refWalk(units, levels, cuts[r], cuts[r+1])
		}
		for _, threads := range []int{1, 2, 4} {
			embs := make([][][]uint32, split)
			chs := make([][]int, split)
			errs := make([]error, split)
			var wg sync.WaitGroup
			next := make(chan int, split)
			for r := 0; r < split; r++ {
				next <- r
			}
			close(next)
			for th := 0; th < threads; th++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for r := range next {
						embs[r], chs[r], errs[r] = walkRange(c, cuts[r], cuts[r+1])
					}
				}()
			}
			wg.Wait()
			for r := 0; r < split; r++ {
				if errs[r] != nil {
					t.Fatalf("split %d threads %d range [%d,%d): %v", split, threads, cuts[r], cuts[r+1], errs[r])
				}
				we, wc := wantEmbs[r], wantChs[r]
				if !reflect.DeepEqual(embs[r], we) || !reflect.DeepEqual(chs[r], wc) {
					t.Fatalf("split %d threads %d range [%d,%d): walk differs from the reference (%d vs %d embeddings)",
						split, threads, cuts[r], cuts[r+1], len(embs[r]), len(we))
				}
			}
		}
	}
}

// walkRange is walkAll for a goroutine: the embeddings of [lo, hi) and
// their change levels, or the walk's error.
func walkRange(c *CSE, lo, hi int) ([][]uint32, []int, error) {
	w, err := NewWalker(c, lo, hi)
	if err != nil {
		return nil, nil, err
	}
	defer w.Close()
	var embs [][]uint32
	var chs []int
	for {
		emb, ch, leaves, ok := w.NextRun()
		if !ok {
			return embs, chs, w.Err()
		}
		for _, u := range leaves {
			emb[len(emb)-1] = u
			embs = append(embs, append([]uint32(nil), emb...))
			chs = append(chs, ch)
			ch = len(emb)
		}
	}
}

// checkDeltaExtract reads every stride-th embedding of the top level back
// with Extract, and every stride-th unit of each level with UnitAt.
func checkDeltaExtract(t *testing.T, c *CSE, units []uint32, levels []*MemLevel, stride int) {
	t.Helper()
	want, _ := refWalk(units, levels, 0, c.Top().Len())
	got := make([]uint32, c.Depth())
	for i := 0; i < len(want); i += stride {
		w := want[i]
		if err := c.Extract(i, got); err != nil {
			t.Fatalf("Extract(%d): %v", i, err)
		}
		if !reflect.DeepEqual(got, w) {
			t.Fatalf("Extract(%d) = %v, want %v", i, got, w)
		}
	}
	for l, m := range levels {
		lv := c.Level(l + 2)
		for i := 0; i < len(m.Verts); i += stride {
			if u, err := lv.UnitAt(i); err != nil || u != m.Verts[i] {
				t.Fatalf("level %d UnitAt(%d) = %d (%v), want %d", l+2, i, u, err, m.Verts[i])
			}
		}
	}
}
