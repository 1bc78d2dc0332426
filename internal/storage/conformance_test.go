package storage

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"kaleido/internal/memtrack"
	"kaleido/internal/run"
	"kaleido/internal/storage/vfs"
)

// MemLevel is the reference every hybrid level is checked against: the two
// plain arrays of §3.1.1.
type MemLevel struct {
	Verts []uint32
	// Offs groups Verts under the previous level: len(Offs) = groups+1,
	// Offs[0] = 0 and Offs[groups] = len(Verts).
	Offs []uint64
}

// Validate checks the structural invariants of the level.
func (m *MemLevel) Validate() error {
	if len(m.Offs) < 1 || m.Offs[0] != 0 {
		return fmt.Errorf("offs must start at 0")
	}
	for i := 1; i < len(m.Offs); i++ {
		if m.Offs[i] < m.Offs[i-1] {
			return fmt.Errorf("offs not monotone at %d", i)
		}
	}
	if end := m.Offs[len(m.Offs)-1]; end != uint64(len(m.Verts)) {
		return fmt.Errorf("offs end %d, want %d", end, len(m.Verts))
	}
	return nil
}

// refParent is the reference ParentOf: the largest p with m.Offs[p] <= i.
func refParent(m *MemLevel, i int) int {
	return sort.Search(len(m.Offs), func(x int) bool { return m.Offs[x] > uint64(i) }) - 1
}

// refWalk is the reference walk over top-level embeddings [lo, hi) of the
// stack units, levels[0] (level 2), …, read off the plain arrays: every
// embedding, and as its changedFrom the smallest level whose ancestor index
// moved since the previous one (1 for the first).
func refWalk(units []uint32, levels []*MemLevel, lo, hi int) ([][]uint32, []int) {
	k := len(levels) + 1
	var embs [][]uint32
	var chs []int
	prev := make([]int, k)
	for i := lo; i < hi; i++ {
		idx := make([]int, k)
		idx[k-1] = i
		for l := k - 1; l >= 1; l-- {
			idx[l-1] = refParent(levels[l-1], idx[l])
		}
		emb := make([]uint32, k)
		emb[0] = units[idx[0]]
		for l := 1; l < k; l++ {
			emb[l] = levels[l-1].Verts[idx[l]]
		}
		ch := 1
		for i > lo && idx[ch-1] == prev[ch-1] { // the leaf index always moves
			ch++
		}
		embs, chs, prev = append(embs, emb), append(chs, ch), idx
	}
	return embs, chs
}

// layout says where buildLevels puts each part of the hybrid level.
type layout struct {
	name   string
	budget int64               // builder watermark; ≤ 0 is the all-disk regime
	at     func(part int) byte // 'r' raw, 'd' disk (forced spill)
	bare   bool                // no spill dir, no write queue, no tracker: the build may need none
}

var (
	layoutRaw   = layout{name: "raw", budget: 1 << 40, at: func(int) byte { return 'r' }}
	layoutDisk  = layout{name: "disk", budget: 0, at: func(int) byte { return 'd' }}
	layoutMixed = layout{name: "mixed", budget: 1 << 40, at: func(i int) byte { return "dr"[i%2] }}
	// An unbudgeted run: the watermark is out of reach, so nothing the spill
	// path needs is even there.
	layoutUnbudgeted = layout{name: "unbudgeted", budget: math.MaxInt64, at: func(int) byte { return 'r' }, bare: true}
	layouts          = []layout{layoutRaw, layoutDisk, layoutMixed, layoutUnbudgeted}
)

// buildLevels lays the same groups, split into nparts contiguous ranges, out
// by hand as a MemLevel (the reference) and writes them through a
// HybridLevelBuilder whose parts end up where lay says. The tiny queue
// buffers and 128-byte prefetch windows force frequent queue traffic and
// codec blocks that straddle windows. fs is the filesystem of the spilled
// parts (nil = the real one).
func buildLevels(t testing.TB, fs vfs.FS, groups [][]uint32, nparts int, lay layout) (*MemLevel, *HybridLevel, *memtrack.Tracker) {
	t.Helper()
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
	ml := &MemLevel{Offs: []uint64{0}}
	hb := NewHybridLevelBuilder(&run.Env{FS: fs, Tracker: tracker}, dir, q, lay.budget)
	hb.Reset(2, nparts, nil)
	hb.blockSize = 128
	for i := 0; i < nparts; i++ {
		if lay.at(i) == 'd' {
			hb.parts[i].spillReq.Store(true)
		}
	}
	per := (len(groups) + nparts - 1) / nparts
	for i := 0; i < nparts; i++ {
		lo, hi := min(i*per, len(groups)), min(i*per+per, len(groups))
		for _, g := range groups[lo:hi] {
			ml.Verts = append(ml.Verts, g...)
			ml.Offs = append(ml.Offs, uint64(len(ml.Verts)))
			if err := appendGroup(hb.Part(i), g); err != nil {
				t.Fatal(err)
			}
		}
		if err := hb.Part(i).Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if err := ml.Validate(); err != nil {
		t.Fatal(err)
	}
	hl, err := hb.Finish()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { hl.Close() })
	return ml, hl, tracker
}

func randGroups(rng *rand.Rand, n int) [][]uint32 {
	groups := make([][]uint32, n)
	for i := range groups {
		sz := rng.Intn(5)
		if rng.Intn(10) == 0 {
			sz = rng.Intn(50) // occasional big group
		}
		g := make([]uint32, sz)
		for j := range g {
			g[j] = rng.Uint32() % 1000
		}
		groups[i] = g
	}
	return groups
}

// readVerts drains a vert block cursor, checking no block is empty.
func readVerts(t *testing.T, c *hybridVertBlocks) ([]uint32, error) {
	t.Helper()
	defer c.Close()
	out := []uint32{}
	for {
		blk, ok := c.NextBlock()
		if !ok {
			return out, c.Err()
		}
		if len(blk) == 0 {
			t.Fatal("empty block with ok=true")
		}
		out = append(out, blk...)
	}
}

// readBounds drains a bound block cursor.
func readBounds(c *hybridBoundBlocks) ([]uint64, error) {
	defer c.Close()
	out := []uint64{}
	for {
		blk, ok := c.NextBlock()
		if !ok {
			return out, c.Err()
		}
		out = append(out, blk...)
	}
}

// around returns the in-range indices within 2 of every seam.
func around(seams []int, limit int) []int {
	set := map[int]bool{}
	for _, s := range seams {
		for d := -2; d <= 2; d++ {
			if i := s + d; i >= 0 && i < limit {
				set[i] = true
			}
		}
	}
	out := make([]int, 0, len(set))
	for i := range set {
		out = append(out, i)
	}
	sort.Ints(out)
	return out
}

// TestConformance is the level conformance property: the same random
// groups laid out as a MemLevel (the reference) and built as a hybrid level
// in each residency — all raw, all disk (budget ≤ 0), mixed, and all raw
// with nothing of the spill path present (unbudgeted) — must agree on every
// operation. Sequential cursors are compared from every start offset that
// straddles a part seam, a codec-block seam or a CntChunk seam; random access
// at those offsets plus a stride over the whole level (every index on the
// small shapes).
func TestConformance(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	type shape struct {
		name   string
		groups [][]uint32
		nparts int
	}
	// Big enough that every part spans several codec blocks and CntChunks:
	// ~2·CntChunk groups and ~3 vert blocks per part.
	big := make([][]uint32, 3*(2*CntChunk+37))
	for i := range big {
		g := make([]uint32, rng.Intn(4))
		for j := range g {
			g[j] = uint32(i/3+j*5) + rng.Uint32()%4
		}
		big[i] = g
	}
	// One child per group puts vert and cnt seams at the same indices.
	unit := make([][]uint32, 2*CntChunk+3)
	for i := range unit {
		unit[i] = []uint32{uint32(i)}
	}
	shapes := []shape{{"seams", big, 3}, {"unit-1part", unit, 1}, {"unit-2parts", unit, 2}}
	for trial := 0; trial < 6; trial++ {
		shapes = append(shapes, shape{fmt.Sprintf("random%d", trial), randGroups(rng, 1+rng.Intn(400)), 1 + rng.Intn(5)})
	}
	for _, sh := range shapes {
		for _, lay := range layouts {
			t.Run(sh.name+"/"+lay.name, func(t *testing.T) {
				ml, hl, _ := buildLevels(t, nil, sh.groups, sh.nparts, lay)
				checkConforms(t, ml, hl, base(hl.Groups()))
				if lay.name == "disk" && hl.MemParts() != 0 {
					t.Fatalf("budget ≤ 0 left %d parts in memory", hl.MemParts())
				}
				if lay.bare && hl.DiskParts() != 0 {
					t.Fatalf("%s: %d parts on disk", lay.name, hl.DiskParts())
				}
			})
		}
	}
}

// base returns a level-1 unit list for a level with n groups.
func base(n int) []uint32 {
	units := make([]uint32, n)
	for i := range units {
		units[i] = uint32(i + 100)
	}
	return units
}

// checkConforms compares every operation of hl against the reference ml.
func checkConforms(t *testing.T, ml *MemLevel, hl *HybridLevel, units []uint32) {
	t.Helper()
	n, groups := len(ml.Verts), len(ml.Offs)-1
	if n != hl.Len() || groups != hl.Groups() {
		t.Fatalf("shape %d/%d vs %d/%d", n, groups, hl.Len(), hl.Groups())
	}
	// Seams in vert index space and in group index space.
	vseams, gseams := []int{0, n}, []int{0, groups}
	for i := range hl.parts {
		p := &hl.parts[i]
		for k := 0; k*codecBlockVals <= p.numVerts; k++ {
			vseams = append(vseams, p.vertBase+k*codecBlockVals)
		}
		for k := 0; k*CntChunk <= p.numGroups; k++ {
			gseams = append(gseams, p.groupBase+k*CntChunk)
		}
	}
	starts := around(vseams, n+1)
	for _, lo := range starts {
		// Ends: one unit, just past each of the next few seams, everything.
		ends := []int{lo + 1, n}
		for _, s := range starts {
			if s > lo && len(ends) < 12 {
				ends = append(ends, s)
			}
		}
		for _, hi := range ends {
			if hi > n {
				continue
			}
			got, err := readVerts(t, hl.VertBlocks(lo, hi))
			if err != nil {
				t.Fatalf("VertBlocks(%d,%d): %v", lo, hi, err)
			}
			if !reflect.DeepEqual(got, append([]uint32{}, ml.Verts[lo:hi]...)) {
				t.Fatalf("VertBlocks(%d,%d) differs from mem verts", lo, hi)
			}
		}
	}
	for _, first := range around(gseams, groups) {
		got, err := readBounds(hl.BoundBlocks(first))
		if err != nil {
			t.Fatalf("BoundBlocks(%d): %v", first, err)
		}
		if !reflect.DeepEqual(got, append([]uint64{}, ml.Offs[first+1:]...)) {
			t.Fatalf("BoundBlocks(%d) differs from mem offs", first)
		}
	}
	if got, err := readBounds(hl.BoundBlocks(groups)); err != nil || len(got) != 0 {
		t.Fatalf("BoundBlocks past the end: %d bounds, %v", len(got), err)
	}

	// Random access: every index on small levels, the seams plus a stride on
	// large ones (each probe of an encoded part decodes a whole block).
	stride := 1 + n/2000
	verts := around(vseams, n)
	for i := 0; i < n; i += stride {
		verts = append(verts, i)
	}
	hyb := NewCSE(NewBaseLevel(units))
	if err := hyb.Push(hl); err != nil {
		t.Fatal(err)
	}
	got := make([]uint32, 2)
	for _, i := range verts {
		if u, err := hl.UnitAt(i); err != nil || u != ml.Verts[i] {
			t.Fatalf("UnitAt(%d) = %d (%v), want %d", i, u, err, ml.Verts[i])
		}
		want := refParent(ml, i)
		if p, err := hl.ParentOf(i); err != nil || p != want {
			t.Fatalf("ParentOf(%d) = %d (%v), want %d", i, p, err, want)
		}
		if err := hyb.Extract(i, got); err != nil {
			t.Fatal(err)
		}
		if got[0] != units[want] || got[1] != ml.Verts[i] {
			t.Fatalf("Extract(%d) = %v, want [%d %d]", i, got, units[want], ml.Verts[i])
		}
	}
	gstride := 1 + groups/2000
	gs := around(gseams, groups+1)
	for g := 0; g <= groups; g += gstride {
		gs = append(gs, g)
	}
	for _, g := range gs {
		if s, err := hl.GroupStart(g); err != nil || s != ml.Offs[g] {
			t.Fatalf("GroupStart(%d) = %d (%v), want %d", g, s, err, ml.Offs[g])
		}
	}
}
