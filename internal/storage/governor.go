package storage

import (
	"math"
	"sync"
	"sync/atomic"

	"kaleido/internal/memtrack"
)

// governor is the placement policy of a hybrid build. It has one input, the
// budget scope's live bytes (tracker.SharedLive: the run's stored levels,
// this build's charged parts and, under an Engine, every sibling run), read
// at every charge and compared with one absolute watermark. The scope is
// pressed while live is at or over the watermark; at such a charge every
// part still growing is marked for disk, and then flushed parts are shed,
// largest first, until the bytes marked cover the overshoot (live − pending −
// watermark) — never more, so a spike of a few bytes does not send a whole
// level to disk. Marked bytes stay resident until their migration completes,
// and letting the other workers keep appending in memory meanwhile is what
// overruns the watermark (measured on the repo benchmark's store4-hybrid,
// two workers: covering the overshoot with one growing victim raised the
// tracked peak from the watermark to 10-30% above it). pending tracks the
// bytes of parts marked but not yet migrated, so the post-crossing fast path
// stays a few atomic loads — the full part scan runs only when a new victim
// is needed.
//
// Marked bytes are not left to their owners alone, though. A charge that
// finds the scope pressed while pending covers the overshoot first drains
// them (drainMarked): it waits out a migration under way and migrates a
// marked part whose owner has not reached its next append, from the groups
// the owner showed at its last charge. Only if that frees nothing are the
// parts still growing marked. Otherwise one owner slow to migrate — busy
// creating its part files, or descheduled — would send every part started
// meanwhile to disk (measured on kaleido's TestMinerLevelStats level, two
// workers on 2 vCPUs beside two busy loops: all parts on disk in 121 of
// 3,000 builds before, 0 of 3,000 after).
//
// A part charges its appended bytes once per slab, not once per group, and
// the rest at its Flush — budgeted or not, one rule. A charge writes the
// governor's inflight, the run's tracker and, under an Engine, the arbiter:
// atomics every worker contends on. Charged per group they were a fifth to a
// quarter of the CPU of the repo benchmark's store4-hybrid job. Tracked
// bytes therefore lag the resident bytes by less than one slab per part
// still growing, and the slabs of all parts add up to at most 1/64 of the
// headroom the build started with. A part whose last charge found the scope
// pressed charges every group, so its reaction does not lag.
type governor struct {
	// Fixed for the length of a build, and read by every append.
	watermark int64             // on SharedLive; math.MaxInt64 is no budget
	slab      int64             // bytes a part appends between charges; ≤ 0 charges every group
	tracker   *memtrack.Tracker // nil: nothing spills
	b         *HybridLevelBuilder

	// The counters every charge of every worker writes sit a cache line away
	// from the fields above: sharing one, each charge's first read of the
	// slab fetched the line its own add then had to fetch again for writing
	// (measured when every append charged, on the repo benchmark's
	// store4-hybrid job, two workers: 0.62 s together, 0.55 s apart).
	_        [64]byte
	inflight atomic.Int64
	pending  atomic.Int64

	mu  sync.Mutex // serializes victim selection and error recording
	err error
}

// maxSlab caps the slab: at 32 KiB the charges of a store4-sized build are
// a few thousand per level, off the profile.
const maxSlab = 32 << 10

// reset re-arms the governor for a new build of nparts parts and returns the
// build's headroom: the bytes the scope has left under the watermark now
// (negative once it is crossed), or math.MaxInt64 without a budget. The slab
// is 1/64 of each part's share of the headroom, capped at maxSlab: an
// unbudgeted build charges every 32 KiB, one with little or no headroom every
// group.
func (g *governor) reset(nparts int) (headroom int64) {
	g.releaseInflight() // no-op after a completed Finish/Abort
	g.pending.Store(0)
	g.mu.Lock()
	g.err = nil
	g.mu.Unlock()
	headroom = math.MaxInt64
	if g.tracker != nil {
		headroom = g.watermark - g.tracker.SharedLive()
	}
	g.slab = min(maxSlab, headroom/int64(64*max(nparts, 1)))
	return headroom
}

// noteAlloc charges delta appended bytes and reports whether the scope is
// pressed, after spilling over if it is. In-flight build bytes are charged
// to the tracker as they grow (slab by slab), not just at Finish: under a
// shared arbiter this is what makes one run's half-built level visible to
// its siblings' governors. Finish/Abort release the in-flight charge (the
// finished level is then charged by its owner).
func (g *governor) noteAlloc(delta int64) (pressed bool) {
	g.inflight.Add(delta)
	if g.tracker == nil {
		return false
	}
	g.tracker.Alloc(delta)
	if g.tracker.SharedLive() < g.watermark {
		return false
	}
	g.spillOver()
	return true
}

func (g *governor) noteFree(n int64) {
	if g.tracker != nil {
		g.tracker.Free(n)
	}
	g.inflight.Add(-n)
}

// releaseInflight returns the tracker charge of whatever in-flight bytes
// remain — the end-of-build handoff (Finish: the assembled level is charged
// by its owner) and the Abort teardown.
func (g *governor) releaseInflight() {
	if n := g.inflight.Swap(0); n != 0 && g.tracker != nil {
		g.tracker.Free(n)
	}
}

// mark condemns part p, holding bytes resident bytes, to disk: its owner
// migrates it at its next append or Flush (spillOver does it for parts
// already flushed).
func (g *governor) mark(p *hybridPartWriter, bytes int64) {
	p.claimed = bytes
	g.pending.Add(bytes)
	p.spillReq.Store(true)
}

// spillOver marks resident bytes while the scope is pressed: every part
// still growing at once, then the largest flushed parts one by one until the
// marked bytes cover the overshoot. Flushed victims are migrated on the
// calling goroutine (their owner is done with them).
func (g *governor) spillOver() {
	if g.b.queue.Failed() {
		// The write-behind queue hit a hard error (typically ENOSPC): there
		// is nowhere for victims to go, so stop marking parts — the run is
		// failing; NextGroup surfaces the queue's typed error.
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	for {
		live := g.tracker.SharedLive()
		// One scan: the largest unmarked part (the next victim), and whether
		// any unmarked part is still being appended to.
		var victim *hybridPartWriter
		var victimBytes int64
		growing := false
		for i := range g.b.parts {
			p := &g.b.parts[i]
			bb := p.bytes.Load()
			if p.spillReq.Load() || bb == 0 {
				continue
			}
			if !p.flushed.Load() {
				growing = true
			}
			if bb > victimBytes {
				victim, victimBytes = p, bb
			}
		}
		switch {
		case live >= g.watermark && growing:
			if live-g.pending.Load() < g.watermark && g.drainMarked() {
				continue // the bytes already condemned covered the overshoot
			}
			for i := range g.b.parts {
				p := &g.b.parts[i]
				if bb := p.bytes.Load(); bb > 0 && !p.spillReq.Load() && !p.flushed.Load() {
					g.mark(p, bb)
				}
			}
		case live-g.pending.Load() <= g.watermark || victim == nil:
			return // covered — or everything is marked and migrations will catch up
		default:
			// Nothing unmarked grows, so the victim is flushed: its owner
			// has moved on, migrate here.
			g.mark(victim, victimBytes)
			g.mu.Unlock()
			err := victim.migrate(false)
			g.mu.Lock()
			if err != nil && g.err == nil {
				g.err = err
			}
		}
	}
}

// drainMarked migrates the marked parts that still hold charged bytes —
// waiting out a migration under way, draining the shown groups of a part
// whose owner has not reached its next append — and reports whether pending
// fell. Marked bytes stay resident until they migrate, and a part started
// meanwhile would otherwise find the scope still over the watermark and be
// marked too: one descheduled owner could send a whole level to disk.
// Called with g.mu held; a migration takes no governor lock.
func (g *governor) drainMarked() bool {
	before := g.pending.Load()
	for i := range g.b.parts {
		p := &g.b.parts[i]
		if !p.spillReq.Load() || p.bytes.Load() == 0 {
			continue
		}
		if err := p.migrate(false); err != nil && g.err == nil {
			g.err = err
		}
	}
	return g.pending.Load() < before
}

func (g *governor) takeErr() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.err
}
