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
// half the level: the governor must migrate in-flight parts mid
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

// TestHybridPressureSpill shrinks the headroom mid-build through a tracker
// charge outside the build (another structure of the run, or a sibling run
// under a shared budget): parts that fit comfortably before the charge must
// migrate after it.
func TestHybridPressureSpill(t *testing.T) {
	const watermark = 1 << 20
	tracker := memtrack.New()
	q := NewWriteQueue(0, tracker)
	defer q.Close()
	hb := NewHybridLevelBuilder(&run.Env{Tracker: tracker}, t.TempDir(), q, watermark)
	hb.Reset(4, 2)
	group := []uint32{1, 2, 3, 4}
	for i := 0; i < 50; i++ {
		if err := appendGroup(hb.Part(0), group); err != nil {
			t.Fatal(err)
		}
	}
	tracker.Alloc(watermark) // the headroom collapses mid-build
	defer tracker.Free(watermark)
	for i := 0; i < 50; i++ {
		if err := appendGroup(hb.Part(0), group); err != nil {
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
		t.Fatalf("the charge over the watermark did not migrate the active part: %d disk parts", hl.DiskParts())
	}
	if hl.Len() != 400 {
		t.Fatalf("level len = %d, want 400", hl.Len())
	}
}

// TestHybridPressureClears: a spike of tracked bytes over the watermark that
// is already freed (live is back under it) when the build next charges must
// spill nothing — the governor reads live bytes, not a record of the
// crossing. The watermark is small enough that every group charges.
func TestHybridPressureClears(t *testing.T) {
	const watermark = 1 << 10
	tracker := memtrack.New()
	q := NewWriteQueue(0, tracker)
	defer q.Close()
	hb := NewHybridLevelBuilder(&run.Env{Tracker: tracker}, t.TempDir(), q, watermark)
	hb.Reset(7, 1)
	if hb.gov.slab >= 3*4+8 {
		t.Fatalf("slab %d bytes: groups do not charge one by one", hb.gov.slab)
	}
	for i := 0; i < 10; i++ {
		if i == 5 {
			tracker.Alloc(2 * watermark) // the spike, over before the next charge
			tracker.Free(2 * watermark)
		}
		if err := appendGroup(hb.Part(0), []uint32{1, 2, 3}); err != nil {
			t.Fatal(err)
		}
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
		t.Fatal("a freed spike spilled parts despite live bytes under the watermark")
	}
}

// TestPressureSpillsOnlyTheOvershoot pins the governor's pressure invariant:
// data at rest is shed only until the marked bytes cover SharedLive −
// watermark, never more; what is condemned beyond that is only what is
// still growing. Six parts are built and flushed under the watermark, then
// two more grow side by side — interleaved on one goroutine, or one
// goroutine each, the outcome must not depend on it — while an external
// charge puts the tracked total over the watermark:
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
		watermark = external + cold*partSize + 2*partSize*9/10
	)
	group := make([]uint32, groupLen)
	for _, tc := range []struct {
		name     string
		spike    int64 // charged after the cold parts are flushed
		wantCold int   // flushed parts still resident at the end
	}{
		{"a few bytes", 0, cold},
		{"a part and a half", (watermark - external - cold*partSize) + partSize*3/2, cold - 2},
	} {
		for _, concurrent := range []bool{false, true} {
			tracker := memtrack.New()
			q := NewWriteQueue(0, tracker)
			tracker.Alloc(external)
			hb := NewHybridLevelBuilder(&run.Env{Tracker: tracker}, t.TempDir(), q, watermark)
			hb.Reset(2, nparts)
			// build appends ngroups groups to each of parts, round-robin on
			// this goroutine or with one goroutine per part.
			build := func(parts ...int) {
				appendTo := func(i int) {
					if err := appendGroup(hb.Part(i), group); err != nil {
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
// disk under the governor's lock. 1, 2 and 4 writers share eight parts, and
// append to the parts they own round-robin, so all eight grow at once — the
// worst case of the bound. The build must actually spill and actually lag (a
// slab is many groups), and the level must still equal the reference. The
// sequential cases fill each writer's parts one after another instead, as
// explorer workers fill the chunks they pull, and there the level must end
// up with parts both in memory and on disk.
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
	for _, tc := range []struct {
		writers    int
		sequential bool
	}{{1, false}, {2, false}, {4, false}, {1, true}, {2, true}, {4, true}} {
		writers := tc.writers
		name := fmt.Sprintf("%dwriters", writers)
		if tc.sequential {
			name += "-sequential"
		}
		t.Run(name, func(t *testing.T) {
			tracker := memtrack.New()
			q := NewWriteQueue(0, tracker)
			defer q.Close()
			hb := NewHybridLevelBuilder(&run.Env{Tracker: tracker}, t.TempDir(), q, watermark)
			hb.Reset(2, nparts)
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
					// Writer w owns parts w, w+writers, …
					add := func(i, j int) bool {
						p, g := hb.Part(i), groups[i][j]
						if err := appendGroup(p, g); err != nil {
							t.Error(err)
							return false
						}
						if p.onDisk {
							resident[i].Store(0)
						} else {
							resident[i].Add(int64(len(g))*4 + 8)
						}
						worst[w] = max(worst[w], unmarked())
						return true
					}
					flush := func(i int) {
						if err := hb.Part(i).Flush(); err != nil {
							t.Error(err)
						}
					}
					if tc.sequential {
						for i := w; i < nparts; i += writers {
							for j := 0; j < perPart; j++ {
								if !add(i, j) {
									return
								}
							}
							flush(i)
						}
						return
					}
					for j := 0; j < perPart; j++ {
						for i := w; i < nparts; i += writers {
							if !add(i, j) {
								return
							}
						}
					}
					for i := w; i < nparts; i += writers {
						flush(i)
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
			if hl.DiskParts() == 0 {
				t.Fatalf("nothing spilled: %d mem / %d disk parts", hl.MemParts(), hl.DiskParts())
			}
			if tc.sequential && hl.MemParts() == 0 {
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

// TestHybridDrainWhileOwnerAppends: the governor marks and drains a part
// from another goroutine while its owner keeps appending, as drainMarked does
// for a descheduled owner. Whichever of the two migrates first, every group
// lands once and in order, and no byte stays charged. Run it under -race.
func TestHybridDrainWhileOwnerAppends(t *testing.T) {
	tracker := memtrack.New()
	q := NewWriteQueue(0, tracker)
	defer q.Close()
	hb := NewHybridLevelBuilder(&run.Env{Tracker: tracker}, t.TempDir(), q, 1<<20)
	hb.Reset(2, 1)
	p := hb.Part(0)
	ml := &MemLevel{Offs: []uint64{0}}
	charged := make(chan struct{})
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		<-charged
		hb.gov.mu.Lock()
		defer hb.gov.mu.Unlock()
		hb.gov.mark(p, p.bytes.Load())
		hb.gov.drainMarked()
	}()
	for j := 0; j < 20000; j++ {
		g := []uint32{uint32(j), uint32(j + 1), uint32(j + 2)}
		ml.Verts = append(ml.Verts, g...)
		ml.Offs = append(ml.Offs, uint64(len(ml.Verts)))
		if err := appendGroup(p, g); err != nil {
			t.Fatal(err)
		}
		if j == 5000 {
			if p.bytes.Load() == 0 {
				t.Fatal("no slab charged after 5,000 groups")
			}
			close(charged)
		}
	}
	<-drained
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	hl, err := hb.Finish()
	if err != nil {
		t.Fatal(err)
	}
	defer hl.Close()
	if hl.DiskParts() != 1 {
		t.Fatalf("%d mem / %d disk parts, want the part on disk", hl.MemParts(), hl.DiskParts())
	}
	checkConforms(t, ml, hl, base(hl.Groups()))
	if live := tracker.Live(); live != 0 {
		t.Fatalf("tracker holds %d bytes after Finish", live)
	}
}

// TestHybridSlabConservation: charging a slab at a time must not leak a
// byte. One level holds a part on each path — raw, migrated by the governor
// after its Flush, migrated by its owner while it held uncharged bytes
// (which are then dropped, never freed), and drained by the governor while
// its owner was mid-group, the owner draining the rest at its next append.
// At every step a part still in memory holds, as charged plus uncharged
// bytes, what was appended to it since it last drained, a part wholly on
// disk holds neither, the governor's in-flight bytes are the parts' charged
// bytes and the tracker holds exactly those over its baseline; Live() is back
// at the baseline after Finish and Close, and after an Abort.
func TestHybridSlabConservation(t *testing.T) {
	const baseline = 12345 // charged by someone else before the build
	for _, abort := range []bool{false, true} {
		tracker := memtrack.New()
		tracker.Alloc(baseline)
		q := NewWriteQueue(0, tracker)
		hb := NewHybridLevelBuilder(&run.Env{Tracker: tracker}, t.TempDir(), q, 1<<20+baseline)
		hb.Reset(2, 5)
		if hb.gov.slab < 1024 {
			t.Fatalf("slab %d bytes: too small to lag", hb.gov.slab)
		}
		ml := &MemLevel{Offs: []uint64{0}}
		var appended [5]int64 // raw bytes appended in memory, in the governor's units
		fill := func(part, n int) {
			t.Helper()
			for j := 0; j < n; j++ {
				g := []uint32{uint32(j), uint32(j + 1), uint32(j + 3)}
				ml.Verts = append(ml.Verts, g...)
				ml.Offs = append(ml.Offs, uint64(len(ml.Verts)))
				if err := appendGroup(hb.Part(part), g); err != nil {
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
				case p.onDisk || p.migrated && p.flushed.Load():
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
		if err := p1.migrate(false); err != nil {
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
		conserved("raw part growing")

		fill(4, 700) // drained by the governor while its owner is mid-group
		buf, err := hb.parts[4].NextGroup()
		if err != nil {
			t.Fatal(err)
		}
		p4 := &hb.parts[4]
		hb.gov.mu.Lock()
		hb.gov.mark(p4, p4.bytes.Load())
		drained := hb.gov.drainMarked()
		hb.gov.mu.Unlock()
		if !drained || !p4.migrated || p4.onDisk {
			t.Fatalf("drained %v: part 4 migrated %v, on its owner's disk path %v", drained, p4.migrated, p4.onDisk)
		}
		appended[4] = p4.uncharged         // the shown groups are on disk, the rest is not
		g := make([]uint32, hb.gov.slab/4) // a group that charges a slab
		for j := range g {
			g[j] = uint32(j)
		}
		ml.Verts = append(ml.Verts, g...)
		ml.Offs = append(ml.Offs, uint64(len(ml.Verts)))
		p4.CommitGroup(append(buf, g...))
		appended[4] += int64(len(g))*4 + 8
		if p4.bytes.Load() == 0 {
			t.Fatal("part 4's owner charged nothing after the drain")
		}
		conserved("part drained by the governor mid-group")
		fill(4, 300)
		if !p4.onDisk {
			t.Fatal("part 4's owner did not switch to disk")
		}
		conserved("every path taken")

		if abort {
			if err := hb.Abort(); err != nil {
				t.Fatal(err)
			}
		} else {
			for i := 2; i < 5; i++ {
				if err := hb.Part(i).Flush(); err != nil {
					t.Fatal(err)
				}
			}
			conserved("every part flushed")
			hl, err := hb.Finish()
			if err != nil {
				t.Fatal(err)
			}
			if hl.MemParts() != 2 || hl.DiskParts() != 3 {
				t.Fatalf("placed %d mem / %d disk parts, want 2 / 3", hl.MemParts(), hl.DiskParts())
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
	hb := NewHybridLevelBuilder(&run.Env{Tracker: tracker}, dir, q, 1<<40)
	hb.Reset(6, 2)
	for i := 0; i < 2; i++ {
		if err := appendGroup(hb.Part(i), []uint32{uint32(i)}); err != nil {
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
		hb := NewHybridLevelBuilder(&run.Env{Tracker: memtrack.New()}, t.TempDir(), q, budget)
		hb.Reset(2, 3)
		for _, order := range [][]int{{0, 1, 2}, {2, 1, 0}, {1, 2, 0}, {0, 2, 1}} {
			for pi, gs := range groups {
				for _, g := range gs {
					if err := appendGroup(hb.Part(pi), g); err != nil {
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
			hb.Reset(3, 2)
			if err := appendGroup(hb.Part(1), []uint32{8, 9}); err != nil {
				t.Fatal(err)
			}
			if err := hb.Abort(); err != nil {
				t.Fatal(err)
			}
			if cap(hb.parts) < 2 || hb.parts[:2][1].verts != nil {
				t.Fatalf("Abort kept a part buffer or dropped the part slice (cap %d)", cap(hb.parts))
			}
			hb.Reset(2, 3)
		}
	}
}
