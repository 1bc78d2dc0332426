package storage

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"kaleido/internal/memtrack"
	"kaleido/internal/run"
)

// TestHybridMidBuildSpill drives a build against a budget sized to roughly
// half the level: the governor must migrate the largest in-flight parts mid
// build (raw arrays drained into codec blocks, partial blocks continuing to
// fill), ending with both residencies present and the resident bytes near
// the watermark, while the data stays bit-identical to the mem reference.
func TestHybridMidBuildSpill(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	groups := make([][]uint32, 600)
	var totalBytes int64
	for i := range groups {
		g := make([]uint32, 2+rng.Intn(6))
		for j := range g {
			g[j] = rng.Uint32() % 5000
		}
		groups[i] = g
		totalBytes += int64(len(g))*4 + 4
	}
	const nparts = 8
	budget := totalBytes / 2
	ml, hl, tracker := buildLevels(t, nil, groups, nparts,
		layout{name: "half", budget: budget, at: func(int) byte { return 'r' }})
	if hl.DiskParts() == 0 || hl.MemParts() == 0 {
		t.Fatalf("placement not hybrid: %d mem / %d disk parts", hl.MemParts(), hl.DiskParts())
	}
	// The resident data (excluding the mem parts' 8-byte bounds index) must
	// respect the governor budget up to one part's growth.
	var residentVerts int64
	for i := range hl.parts {
		if !hl.parts[i].onDisk() {
			residentVerts += int64(len(hl.parts[i].verts))*4 + int64(hl.parts[i].numGroups)*4
		}
	}
	slack := totalBytes / int64(nparts)
	if residentVerts > budget+slack {
		t.Fatalf("resident part bytes %d exceed budget %d + slack %d", residentVerts, budget, slack)
	}
	checkConforms(t, ml, hl, base(hl.Groups()))
	sl, sp := tracker.SpillTotals()
	if sl == 0 || sp == 0 || sp >= sl {
		t.Fatalf("spill totals (%d logical, %d physical) not compressed", sl, sp)
	}
}

// TestHybridPressureSpill shrinks the effective budget mid-build through the
// external pressure flag (the memtrack high-water signal): parts that fit
// comfortably before the flag must migrate after it.
func TestHybridPressureSpill(t *testing.T) {
	tracker := memtrack.New()
	q := NewWriteQueue(0, tracker)
	defer q.Close()
	var pressure atomic.Bool
	hb := NewHybridLevelBuilder(&run.Env{Tracker: tracker}, t.TempDir(), q, &pressure, 0)
	hb.Reset(4, 2, 1<<40)
	group := []uint32{1, 2, 3, 4}
	for i := 0; i < 50; i++ {
		if err := hb.Part(0).AppendGroup(group); err != nil {
			t.Fatal(err)
		}
	}
	pressure.Store(true) // budget collapses mid-build
	for i := 0; i < 50; i++ {
		if err := hb.Part(0).AppendGroup(group); err != nil {
			t.Fatal(err)
		}
	}
	if err := hb.Part(0).Flush(); err != nil {
		t.Fatal(err)
	}
	if err := hb.Part(1).Flush(); err != nil {
		t.Fatal(err)
	}
	hl, err := hb.Finish()
	if err != nil {
		t.Fatal(err)
	}
	defer hl.Close()
	if hl.DiskParts() != 1 {
		t.Fatalf("pressure flag did not migrate the active part: %d disk parts", hl.DiskParts())
	}
	if hl.Len() != 400 {
		t.Fatalf("level len = %d, want 400", hl.Len())
	}
}

// TestHybridPressureClears: with a positive pressureLimit, a stale pressure
// flag (the tracked spike has passed, live is back under the limit) must be
// cleared by the governor instead of condemning the rest of the level to
// disk.
func TestHybridPressureClears(t *testing.T) {
	tracker := memtrack.New()
	q := NewWriteQueue(0, tracker)
	defer q.Close()
	var pressure atomic.Bool
	pressure.Store(true) // spike already over: live (0) < limit
	hb := NewHybridLevelBuilder(&run.Env{Tracker: tracker}, t.TempDir(), q, &pressure, 1<<20)
	hb.Reset(7, 1, 1<<40)
	for i := 0; i < 10; i++ {
		if err := hb.Part(0).AppendGroup([]uint32{1, 2, 3}); err != nil {
			t.Fatal(err)
		}
	}
	if pressure.Load() {
		t.Fatal("governor did not clear the stale pressure flag")
	}
	if err := hb.Part(0).Flush(); err != nil {
		t.Fatal(err)
	}
	lvl, err := hb.Finish()
	if err != nil {
		t.Fatal(err)
	}
	defer lvl.Close()
	if lvl.DiskParts() != 0 {
		t.Fatal("stale pressure spilled parts despite live bytes under the limit")
	}
}

// TestPressureSpillsOnlyTheOvershoot pins the governor's pressure invariant:
// with a known pressureLimit, data at rest is shed only until the marked
// bytes cover SharedLive − pressureLimit, never more; what is condemned
// beyond that is only what is still growing. Six parts are built and flushed
// under an unlimited build budget, then two more grow side by side —
// interleaved on one goroutine, or one goroutine each, the outcome must not
// depend on it — while an external charge puts the tracked total over the
// limit:
//
//   - by a few bytes, late in the growth: the two growing parts spill and
//     cover it; every flushed part stays resident (a collapsed budget sent
//     all eight to disk);
//   - by a part and a half before the growth starts: the growing parts
//     cover next to nothing, so flushed parts are shed, largest first,
//     until the marked bytes cover the spike — two of them, not six.
func TestPressureSpillsOnlyTheOvershoot(t *testing.T) {
	const (
		cold     = 6 // parts flushed before the pressure
		nparts   = cold + 2
		ngroups  = 200
		groupLen = 4
		delta    = groupLen*4 + 8 // in-flight bytes charged per group
		partSize = ngroups * delta
		external = 1 << 20
		// Crossed when the two growing parts are 90% built.
		limit = external + cold*partSize + 2*partSize*9/10
	)
	group := make([]uint32, groupLen)
	for _, tc := range []struct {
		name     string
		spike    int64 // charged after the cold parts are flushed
		wantCold int   // flushed parts still resident at the end
	}{
		{"a few bytes", 0, cold},
		{"a part and a half", (limit - external - cold*partSize) + partSize*3/2, cold - 2},
	} {
		for _, concurrent := range []bool{false, true} {
			tracker := memtrack.New()
			q := NewWriteQueue(0, tracker)
			var pressure atomic.Bool
			cancel := tracker.OnSharedHighWater(limit, func(int64) { pressure.Store(true) })
			tracker.Alloc(external)
			hb := NewHybridLevelBuilder(&run.Env{Tracker: tracker}, t.TempDir(), q, &pressure, limit)
			hb.Reset(2, nparts, 1<<40)
			// build appends ngroups groups to each of parts, round-robin on
			// this goroutine or with one goroutine per part.
			build := func(parts ...int) {
				appendTo := func(i int) {
					if err := hb.Part(i).AppendGroup(group); err != nil {
						t.Error(err)
					}
				}
				if !concurrent {
					for g := 0; g < ngroups; g++ {
						for _, i := range parts {
							appendTo(i)
						}
					}
					return
				}
				var wg sync.WaitGroup
				for _, i := range parts {
					wg.Add(1)
					go func(i int) {
						defer wg.Done()
						for g := 0; g < ngroups; g++ {
							appendTo(i)
						}
					}(i)
				}
				wg.Wait()
			}
			build(0, 1, 2, 3, 4, 5)
			for i := 0; i < cold; i++ {
				if err := hb.Part(i).Flush(); err != nil {
					t.Fatal(err)
				}
			}
			tracker.Alloc(tc.spike)
			build(cold, cold+1)
			for i := cold; i < nparts; i++ {
				if err := hb.Part(i).Flush(); err != nil {
					t.Fatal(err)
				}
			}
			hl, err := hb.Finish()
			if err != nil {
				t.Fatal(err)
			}
			if hl.Len() != nparts*ngroups*groupLen {
				t.Fatalf("level len = %d", hl.Len())
			}
			var resident int64 // in the governor's units: 4 bytes per vert, 8 per group
			for i := range hl.parts {
				if p := &hl.parts[i]; !p.onDisk() {
					resident += p.logicalBytes()
				}
			}
			if want := int64(tc.wantCold * partSize); resident != want {
				t.Errorf("over by %s, concurrent=%v: %d bytes stayed resident (%d mem / %d disk parts), want %d",
					tc.name, concurrent, resident, hl.MemParts(), hl.DiskParts(), want)
			}
			hl.Close()
			cancel()
			q.Close()
		}
	}
}

// TestHybridSlabLagBound pins what charging the governor a slab at a time
// costs the watermark. Tracked bytes lag the resident ones by less than one
// slab per part, plus the group a writer may have appended but not yet
// charged, so the resident bytes the governor has not condemned stay within
// watermark + nparts·slab + one group per writer. Resident bytes are tallied
// by the test, not read from the builder: each writer publishes what its
// parts hold in memory after every append, and sums the parts not marked for
// disk under the governor's lock. 1, 2 and 4 writers share eight parts. The
// build must actually spill and actually lag (a slab is many groups), and the
// level must still equal the reference.
func TestHybridSlabLagBound(t *testing.T) {
	const (
		nparts    = 8
		perPart   = 10000 // groups
		watermark = 1 << 20
		maxGroup  = 8*4 + 8 // the governor's bytes for the largest group
	)
	rng := rand.New(rand.NewSource(7))
	groups := make([][][]uint32, nparts)
	ml := &MemLevel{Offs: []uint64{0}}
	for i := range groups {
		groups[i] = make([][]uint32, perPart)
		for j := range groups[i] {
			g := make([]uint32, 1+rng.Intn(8))
			for k := range g {
				g[k] = uint32(j + k)
			}
			groups[i][j] = g
			ml.Verts = append(ml.Verts, g...)
			ml.Offs = append(ml.Offs, uint64(len(ml.Verts)))
		}
	}
	for _, writers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("%dwriters", writers), func(t *testing.T) {
			tracker := memtrack.New()
			q := NewWriteQueue(0, tracker)
			defer q.Close()
			var pressure atomic.Bool
			hb := NewHybridLevelBuilder(&run.Env{Tracker: tracker}, t.TempDir(), q, &pressure, watermark)
			hb.Reset(2, nparts, watermark)
			// The lag is at most 1/64 of the watermark, and still many groups.
			slab := hb.gov.slab
			if slab > watermark/(64*nparts) || slab < 16*maxGroup {
				t.Fatalf("slab %d bytes for %d parts under a %d-byte watermark", slab, nparts, watermark)
			}
			var resident [nparts]atomic.Int64 // in the governor's units
			unmarked := func() int64 {
				hb.gov.mu.Lock()
				defer hb.gov.mu.Unlock()
				var n int64
				for i := range hb.parts {
					if !hb.parts[i].spillReq.Load() {
						n += resident[i].Load()
					}
				}
				return n
			}
			worst := make([]int64, writers)
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					// Writer w owns parts w, w+writers, … and appends to them
					// round-robin.
					for j := 0; j < perPart; j++ {
						for i := w; i < nparts; i += writers {
							p := hb.Part(i)
							g := groups[i][j]
							if err := p.AppendGroup(g); err != nil {
								t.Error(err)
								return
							}
							if p.migrated {
								resident[i].Store(0)
							} else {
								resident[i].Add(int64(len(g))*4 + 8)
							}
							worst[w] = max(worst[w], unmarked())
						}
					}
					for i := w; i < nparts; i += writers {
						if err := hb.Part(i).Flush(); err != nil {
							t.Error(err)
						}
					}
				}(w)
			}
			wg.Wait()
			if t.Failed() {
				return
			}
			bound := watermark + nparts*slab + int64(writers*maxGroup)
			for w, got := range worst {
				if got > bound {
					t.Errorf("writer %d saw %d unmarked resident bytes, bound %d (watermark %d + %d parts × slab %d + %d × group %d)",
						w, got, bound, watermark, nparts, slab, writers, maxGroup)
				}
			}
			hl, err := hb.Finish()
			if err != nil {
				t.Fatal(err)
			}
			defer hl.Close()
			if hl.DiskParts() == 0 || hl.MemParts() == 0 {
				t.Fatalf("placement not hybrid: %d mem / %d disk parts", hl.MemParts(), hl.DiskParts())
			}
			verts, verr := readVerts(t, hl.VertBlocks(0, hl.Len()))
			bounds, berr := readBounds(hl.BoundBlocks(0))
			if verr != nil || berr != nil {
				t.Fatal(verr, berr)
			}
			if !reflect.DeepEqual(verts, ml.Verts) || !reflect.DeepEqual(bounds, ml.Offs[1:]) {
				t.Fatal("the level differs from the reference")
			}
			if live := tracker.Live(); live != 0 {
				t.Fatalf("tracker holds %d bytes after Finish", live)
			}
		})
	}
}

// TestHybridSlabConservation: charging a slab at a time must not leak a
// byte. One level holds a part on each path — raw, migrated by the governor
// after its Flush, and migrated by its owner while it held uncharged bytes
// (which are then dropped, never freed). At every step a raw
// part's charged plus uncharged bytes are what was appended to it, a migrated
// part holds neither, the governor's in-flight bytes are the parts' charged
// bytes and the tracker holds exactly those over its baseline; Live() is back
// at the baseline after Finish and Close, and after an Abort.
func TestHybridSlabConservation(t *testing.T) {
	const baseline = 12345 // charged by someone else before the build
	for _, abort := range []bool{false, true} {
		tracker := memtrack.New()
		tracker.Alloc(baseline)
		q := NewWriteQueue(0, tracker)
		var pressure atomic.Bool
		hb := NewHybridLevelBuilder(&run.Env{Tracker: tracker}, t.TempDir(), q, &pressure, 1<<20)
		hb.Reset(2, 4, 1<<20)
		if hb.gov.slab < 1024 {
			t.Fatalf("slab %d bytes: too small to lag", hb.gov.slab)
		}
		ml := &MemLevel{Offs: []uint64{0}}
		var appended [4]int64 // raw bytes appended in memory, in the governor's units
		fill := func(part, n int) {
			t.Helper()
			for j := 0; j < n; j++ {
				g := []uint32{uint32(j), uint32(j + 1), uint32(j + 3)}
				ml.Verts = append(ml.Verts, g...)
				ml.Offs = append(ml.Offs, uint64(len(ml.Verts)))
				if err := hb.Part(part).AppendGroup(g); err != nil {
					t.Fatal(err)
				}
				appended[part] += int64(len(g))*4 + 8
			}
		}
		conserved := func(step string) {
			t.Helper()
			var charged int64
			for i := range hb.parts {
				p := &hb.parts[i]
				charged += p.bytes.Load()
				switch {
				case p.migrated:
					if p.bytes.Load() != 0 || p.uncharged != 0 {
						t.Fatalf("abort=%v, %s: migrated part %d holds %d charged + %d uncharged bytes", abort, step, i, p.bytes.Load(), p.uncharged)
					}
				default:
					if got := p.bytes.Load() + p.uncharged; got != appended[i] {
						t.Fatalf("abort=%v, %s: raw part %d accounts for %d bytes, %d appended", abort, step, i, got, appended[i])
					}
				}
			}
			if got := hb.gov.inflight.Load(); got != charged {
				t.Fatalf("abort=%v, %s: governor holds %d in-flight bytes, parts %d charged", abort, step, got, charged)
			}
			if got := tracker.Live() - baseline; got != charged {
				t.Fatalf("abort=%v, %s: tracker holds %d build bytes, parts %d charged", abort, step, got, charged)
			}
		}
		p0, p1, p2 := &hb.parts[0], &hb.parts[1], &hb.parts[2]

		fill(0, 700) // raw
		conserved("raw part growing")
		if err := p0.Flush(); err != nil {
			t.Fatal(err)
		}
		if p0.uncharged != 0 {
			t.Fatalf("flushed part holds %d uncharged bytes", p0.uncharged)
		}
		conserved("raw part flushed")

		fill(1, 700) // migrated by the governor after its Flush
		if err := p1.Flush(); err != nil {
			t.Fatal(err)
		}
		hb.gov.mu.Lock()
		hb.gov.mark(p1, p1.bytes.Load())
		hb.gov.mu.Unlock()
		if err := p1.migrate(); err != nil {
			t.Fatal(err)
		}
		conserved("flushed part migrated by the governor")

		fill(2, 700) // marked while holding uncharged bytes; its owner migrates it
		if p2.uncharged == 0 {
			t.Fatal("part 2 holds no uncharged bytes: the owner's migration path is not exercised")
		}
		hb.gov.mu.Lock()
		hb.gov.mark(p2, p2.bytes.Load())
		hb.gov.mu.Unlock()
		fill(2, 300)
		if !p2.migrated {
			t.Fatal("part 2 did not migrate")
		}
		conserved("part migrated by its owner")

		fill(3, 100) // raw, still growing
		conserved("every path taken")

		if abort {
			if err := hb.Abort(); err != nil {
				t.Fatal(err)
			}
		} else {
			for i := 2; i < 4; i++ {
				if err := hb.Part(i).Flush(); err != nil {
					t.Fatal(err)
				}
			}
			conserved("every part flushed")
			hl, err := hb.Finish()
			if err != nil {
				t.Fatal(err)
			}
			if hl.MemParts() != 2 || hl.DiskParts() != 2 {
				t.Fatalf("placed %d mem / %d disk parts, want 2 / 2", hl.MemParts(), hl.DiskParts())
			}
			checkConforms(t, ml, hl, base(hl.Groups()))
			if live := tracker.Live(); live != baseline {
				t.Fatalf("after Finish the tracker holds %d bytes, baseline %d", live, baseline)
			}
			hl.Close()
		}
		if live := tracker.Live(); live != baseline {
			t.Fatalf("abort=%v: the tracker holds %d bytes at the end, baseline %d", abort, live, baseline)
		}
		q.Close()
	}
}

// TestHybridAllMemFinish: a build that never crosses the watermark must
// produce a level with zero disk parts, zero disk bytes, and no files.
func TestHybridAllMemFinish(t *testing.T) {
	tracker := memtrack.New()
	q := NewWriteQueue(0, tracker)
	defer q.Close()
	dir := t.TempDir()
	hb := NewHybridLevelBuilder(&run.Env{Tracker: tracker}, dir, q, nil, 0)
	hb.Reset(6, 2, 1<<40)
	for i := 0; i < 2; i++ {
		if err := hb.Part(i).AppendGroup([]uint32{uint32(i)}); err != nil {
			t.Fatal(err)
		}
		if err := hb.Part(i).Flush(); err != nil {
			t.Fatal(err)
		}
	}
	hl, err := hb.Finish()
	if err != nil {
		t.Fatal(err)
	}
	defer hl.Close()
	if hl.DiskParts() != 0 || hl.DiskBytes() != 0 {
		t.Fatalf("all-mem build produced %d disk parts / %d disk bytes", hl.DiskParts(), hl.DiskBytes())
	}
	if _, w := tracker.IOTotals(); w != 0 {
		t.Fatalf("all-mem build wrote %d bytes", w)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Fatalf("all-mem build left files: %v", entries)
	}
}

// TestBuilderFlushAnyOrder: parts flushed out of order must still assemble
// in part order, in memory and on disk — and the builder must come back
// clean from Reset after a Finish and after an Abort (which returns the
// memory parts' buffers to the pool instead of dropping its part slice).
func TestBuilderFlushAnyOrder(t *testing.T) {
	groups := [][][]uint32{
		{{1, 2}, {}},
		{{3}, {4, 5, 6}},
		{{7}},
	}
	for _, budget := range []int64{math.MaxInt64, 0} {
		q := NewWriteQueue(0, nil)
		defer q.Close()
		hb := NewHybridLevelBuilder(&run.Env{}, t.TempDir(), q, nil, 0)
		hb.Reset(2, 3, budget)
		for _, order := range [][]int{{0, 1, 2}, {2, 1, 0}, {1, 2, 0}, {0, 2, 1}} {
			for pi, gs := range groups {
				for _, g := range gs {
					if err := hb.Part(pi).AppendGroup(g); err != nil {
						t.Fatal(err)
					}
				}
			}
			for _, pi := range order {
				if err := hb.Part(pi).Flush(); err != nil {
					t.Fatal(err)
				}
			}
			hl, err := hb.Finish()
			if err != nil {
				t.Fatal(err)
			}
			verts, verr := readVerts(t, hl.VertBlocks(0, hl.Len()))
			bounds, berr := readBounds(hl.BoundBlocks(0))
			if verr != nil || berr != nil {
				t.Fatal(verr, berr)
			}
			if !reflect.DeepEqual(verts, []uint32{1, 2, 3, 4, 5, 6, 7}) || !reflect.DeepEqual(bounds, []uint64{2, 2, 3, 6, 7}) {
				t.Fatalf("budget %d, flush order %v: verts %v bounds %v", budget, order, verts, bounds)
			}
			hl.Close()

			// A build abandoned half-way must not leak into the next one.
			hb.Reset(3, 2, budget)
			if err := hb.Part(1).AppendGroup([]uint32{8, 9}); err != nil {
				t.Fatal(err)
			}
			if err := hb.Abort(); err != nil {
				t.Fatal(err)
			}
			if cap(hb.parts) < 2 || hb.parts[:2][1].verts != nil {
				t.Fatalf("Abort kept a part buffer or dropped the part slice (cap %d)", cap(hb.parts))
			}
			hb.Reset(2, 3, budget)
		}
	}
}

// spillTwo puts parts 1 and 3 of four on disk and keeps the rest raw.
var spillTwo = layout{name: "two-disk", budget: 1 << 40, at: func(i int) byte {
	if i%2 == 1 {
		return 'd'
	}
	return 'r'
}}

// TestHybridPromote takes disk parts back into memory as raw arrays and
// checks the level still matches the all-memory reference, the files are
// gone, and the headroom policy promotes only what fits.
func TestHybridPromote(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	groups := randGroups(rng, 300)
	ml, hl, _ := buildLevels(t, nil, groups, 4, spillTwo)

	// Headroom below the smallest part's cost promotes nothing.
	if n, err := hl.Promote(1); err != nil || n != 0 {
		t.Fatalf("Promote(1) = %d, %v", n, err)
	}
	if hl.DiskParts() != 2 {
		t.Fatalf("disk parts = %d after no-op promote", hl.DiskParts())
	}
	var files []string
	for i := range hl.parts {
		if hl.parts[i].onDisk() {
			files = append(files, hl.parts[i].vf.Name(), hl.parts[i].cf.Name())
		}
	}
	n, err := hl.Promote(1 << 40)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("promoted %d parts, want 2", n)
	}
	if hl.DiskParts() != 0 || hl.DiskBytes() != 0 || hl.DiskBytesPhysical() != 0 {
		t.Fatalf("after full promotion: %d disk parts, %d/%d disk bytes",
			hl.DiskParts(), hl.DiskBytes(), hl.DiskBytesPhysical())
	}
	for _, f := range files {
		if _, err := os.Stat(f); !os.IsNotExist(err) {
			t.Fatalf("promoted part file %s still exists", f)
		}
	}
	checkConforms(t, ml, hl, base(hl.Groups()))
}

// TestHybridPromotePartial checks the smallest-first selection: headroom for
// one part promotes exactly the cheaper one, still matching the reference.
func TestHybridPromotePartial(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	groups := randGroups(rng, 240)
	ml, hl, _ := buildLevels(t, nil, groups, 4, spillTwo)
	var costs []int64
	for i := range hl.parts {
		if hl.parts[i].onDisk() {
			costs = append(costs, hl.parts[i].promoteCost())
		}
	}
	if len(costs) != 2 {
		t.Fatalf("disk parts = %d", len(costs))
	}
	n, err := hl.Promote(min(costs[0], costs[1]))
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 || hl.DiskParts() != 1 {
		t.Fatalf("promoted %d, %d disk parts remain", n, hl.DiskParts())
	}
	checkConforms(t, ml, hl, base(hl.Groups()))
}

// TestRewriteEveryResidency filters a mixed level in place — raw parts
// (promoted ones included) compact, disk parts restream into fresh files —
// and compares against filtering the reference.
func TestRewriteEveryResidency(t *testing.T) {
	rng := rand.New(rand.NewSource(113))
	groups := randGroups(rng, 500)
	ml, hl, tracker := buildLevels(t, nil, groups, 6, layoutMixed)
	before := [2]int{hl.MemParts(), hl.DiskParts()}
	keep := func(u uint32) bool { return u%3 != 0 }

	q := NewWriteQueue(64, tracker)
	defer q.Close()
	rws := make([]*PartRewriter, hl.NumParts())
	for i := range rws {
		r, err := hl.RewritePart(i, q)
		if err != nil {
			t.Fatal(err)
		}
		rws[i] = r
		lo, hi := hl.PartGroups(i)
		for g := lo; g < hi; g++ {
			for _, u := range ml.Verts[ml.Offs[g]:ml.Offs[g+1]] {
				if keep(u) {
					r.Keep(u)
				}
			}
			if err := r.GroupDone(); err != nil {
				t.Fatal(err)
			}
		}
		if err := r.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if err := hl.FinishRewrite(rws, q); err != nil {
		t.Fatal(err)
	}
	want := &MemLevel{Offs: make([]uint64, 1, len(ml.Offs))}
	for g := 0; g+1 < len(ml.Offs); g++ {
		for _, u := range ml.Verts[ml.Offs[g]:ml.Offs[g+1]] {
			if keep(u) {
				want.Verts = append(want.Verts, u)
			}
		}
		want.Offs = append(want.Offs, uint64(len(want.Verts)))
	}
	checkConforms(t, want, hl, base(hl.Groups()))
	after := [2]int{hl.MemParts(), hl.DiskParts()}
	if before != after {
		t.Fatalf("rewrite moved parts between residencies: raw/disk %v -> %v", before, after)
	}
}
