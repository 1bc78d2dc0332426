package storage

import (
	"sync"
	"sync/atomic"

	"kaleido/internal/memtrack"
)

// governor is the placement policy of a hybrid build: an atomic running
// total of in-flight resident bytes, compared against the build's watermark
// at every charge. Crossing it marks the largest unmarked parts until the
// bytes marked cover the overshoot — never more. pending tracks the bytes of
// parts marked but not yet migrated, so the post-crossing fast path stays a
// few atomic loads — the full part scan runs only when a new victim is
// needed.
//
// A part charges its appended bytes once per slab, not once per group, and
// the rest at its Flush — budgeted or not, one rule. A charge writes the
// governor's inflight, the run's tracker and, under an Engine, the arbiter:
// atomics every worker contends on. Charged per group they were a fifth to a
// quarter of the CPU of the repo benchmark's store4-hybrid job. Tracked
// bytes therefore lag the resident bytes by less than one slab per part
// still growing, and the slabs of all parts add up to at most 1/64 of the
// build's limit. While the external pressure flag is up every group
// charges, so the reaction to it does not lag.
//
// External pressure with a known limit (the tracked total — sibling runs
// included — is over pressureLimit) follows the same rule for
// data at rest: flushed parts are spilled only until the marked bytes cover
// the overshoot, so a spike of a few bytes does not send a whole level to
// disk. What it condemns beyond that is only what is still growing: marked
// bytes stay resident until their migration completes, and letting the
// other workers keep appending in memory meanwhile is what overruns the
// limit (measured on the repo benchmark's store4-hybrid, two workers:
// covering the overshoot with one victim raised the tracked peak from the
// watermark to 10-30% above it).
type governor struct {
	// Fixed for the length of a build, and read by every append.
	budget        int64
	slab          int64 // bytes a part appends between charges; ≤ 0 charges every group
	pressure      *atomic.Bool
	pressureLimit int64
	tracker       *memtrack.Tracker
	b             *HybridLevelBuilder

	// The counters every charge of every worker writes sit a cache line away
	// from the fields above: sharing one, each charge's first read of the
	// budget fetched the line its own add then had to fetch again for
	// writing (measured when every append charged, on the repo benchmark's
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

// reset re-arms the governor for a new build of nparts parts under
// memBudget. The slab is 1/64 of each part's share of the smaller of the
// build's two limits, capped at maxSlab: an unbudgeted build charges every
// 32 KiB, a tiny budget (or an unknown pressure limit, ≤ 0) every group.
func (g *governor) reset(memBudget int64, nparts int) {
	g.budget = memBudget
	g.slab = min(maxSlab, min(memBudget, g.pressureLimit)/int64(64*max(nparts, 1)))
	g.releaseInflight() // no-op after a completed Finish/Abort
	g.pending.Store(0)
	g.mu.Lock()
	g.err = nil
	g.mu.Unlock()
}

// pressed reports whether the external pressure flag is up.
func (g *governor) pressed() bool { return g.pressure != nil && g.pressure.Load() }

func (g *governor) noteAlloc(delta int64) {
	// In-flight build bytes are charged to the tracker as they grow (slab by
	// slab), not just at Finish: under a shared arbiter this is what makes
	// one run's half-built level visible to its siblings' governors — the
	// cross-run watermark fires on genuinely resident bytes, not only
	// completed levels. Finish/Abort release the in-flight charge (the
	// finished level is then charged by its owner).
	if g.tracker != nil {
		g.tracker.Alloc(delta)
	}
	g.inflight.Add(delta)
	if over, pressed := g.overshoot(); over > 0 || pressed {
		g.spillOver()
	}
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

// overshoot returns how many resident bytes still have to be marked for
// spilling: the in-flight bytes above the build's watermark and, while the
// external pressure flag is up, the tracked live bytes above pressureLimit —
// whichever is larger — less the bytes already marked (pending migrations
// will free them). pressed reports that such a measured limit is exceeded
// right now, marked bytes or not: the caller, an unmarked part that just
// grew, has to stop growing. Without a limit (or a tracker to measure
// against) the flag carries no size, so the governor spills everything while
// it is up.
func (g *governor) overshoot() (over int64, pressed bool) {
	resident := g.inflight.Load() - g.pending.Load()
	over = resident - g.budget
	if !g.pressed() {
		return over, false
	}
	if g.pressureLimit <= 0 || g.tracker == nil {
		return resident, false
	}
	live := g.tracker.SharedLive()
	if live < g.pressureLimit {
		// The spike has passed: stop force-spilling. The high-water callback
		// re-arms below the limit, so a second crossing sets the flag again.
		g.pressure.Store(false)
		return over, false
	}
	return max(over, live-g.pending.Load()-g.pressureLimit), true
}

// mark condemns part p, holding bytes resident bytes, to disk: its owner
// migrates it at its next append or Flush (spillOver does it for parts
// already flushed).
func (g *governor) mark(p *hybridPartWriter, bytes int64) {
	p.claimed = bytes
	g.pending.Add(bytes)
	p.spillReq.Store(true)
}

// spillOver marks resident bytes until the marked bytes cover the overshoot
// and, under measured pressure, nothing grows in memory any more: every part
// still growing is marked at once under pressure, then the largest unmarked
// parts one by one. Already-flushed victims are migrated on the calling
// goroutine (their owner is done with them).
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
		over, pressed := g.overshoot()
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
		case pressed && growing:
			for i := range g.b.parts {
				p := &g.b.parts[i]
				if bb := p.bytes.Load(); bb > 0 && !p.spillReq.Load() && !p.flushed.Load() {
					g.mark(p, bb)
				}
			}
		case over <= 0 || victim == nil:
			return // covered — or everything is marked and migrations will catch up
		default:
			g.mark(victim, victimBytes)
			if victim.flushed.Load() {
				// The owner has moved on; migrate here.
				g.mu.Unlock()
				err := victim.migrate()
				g.mu.Lock()
				if err != nil && g.err == nil {
					g.err = err
				}
			}
		}
	}
}

func (g *governor) takeErr() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.err
}
