package kaleido

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"kaleido/internal/memtrack"
)

// Admission-control errors. Both are returned wrapped, so dispatch with
// errors.Is:
//
//   - ErrQueueFull: the engine's bounded admission queue is at QueueLimit;
//     the job was rejected immediately, nothing was queued.
//   - ErrAdmitDeadline: the request's deadline passed before the arbiter had
//     headroom for it. Requests whose deadline has already expired fail fast
//     without queueing.
var (
	ErrQueueFull     = errors.New("kaleido: admission queue full")
	ErrAdmitDeadline = errors.New("kaleido: admission deadline expired")
)

// DefaultQueueLimit bounds the admission queue when Engine.QueueLimit is 0.
const DefaultQueueLimit = 64

// DefaultAdmitWatermark is the fraction of MemoryBudget that admitted work —
// live bytes plus outstanding reservations plus the new run's projection —
// may plan to fill when Engine.AdmitWatermark is 0. It sits below the spill
// watermark (0.9) on purpose: a run admitted into real headroom starts in
// memory instead of being shoved straight to disk.
const DefaultAdmitWatermark = 0.8

// admitPoll is how often a queued request re-checks headroom between events.
// Release/run-completion kick the dispatcher immediately; the poll only picks
// up headroom freed mid-run (level pops, in-place filters) that has no
// release edge of its own.
const admitPoll = 10 * time.Millisecond

// AdmitRequest describes one run asking to start under the engine's budget.
type AdmitRequest struct {
	// ProjectedBytes is the run's projected peak resident footprint — use
	// Graph.ProjectResidentBytes for the built-in apps, or any caller
	// estimate. The run is released when live + reserved + projected bytes
	// fit under AdmitWatermark·MemoryBudget. Projections larger than the
	// watermark itself are clamped to it, so an oversized job is admitted
	// once the engine is otherwise idle (and then runs mostly on disk, as
	// it must). 0 queues without reserving: the run starts on any headroom.
	ProjectedBytes int64
	// Priority orders the queue: higher runs first, FIFO within a priority.
	// Dispatch is head-of-line — a small low-priority job never jumps a
	// large high-priority one, so high-priority work cannot be starved.
	Priority int
	// Deadline bounds the queue wait. Zero means wait indefinitely (until
	// ctx cancels). An already-expired deadline fails fast with
	// ErrAdmitDeadline before queueing.
	Deadline time.Time
}

// Admission is a granted admission: a reservation of the request's projected
// bytes against the engine's budget headroom. Release it when the run
// completes (success, failure, or cancellation alike) — the reservation is
// what keeps later arrivals queued, so a leaked Admission wedges the queue.
type Admission struct {
	en  *Engine
	res *memtrack.Reservation
}

// Release returns the admission's reserved headroom and wakes the queue.
// Idempotent.
func (ad *Admission) Release() {
	if ad == nil || ad.en == nil {
		return
	}
	ad.res.Release() // nil-safe, first call wins
	ad.en.kickAdmission()
}

// admitWaiter is one queued admission request.
type admitWaiter struct {
	req   AdmitRequest
	seq   uint64
	ready chan *Admission // buffered 1; dispatch hands the admission over
}

// Admit blocks until the engine has budget headroom for the request, then
// returns an Admission reserving its projected bytes. This is the admission
// controller in front of the arbiter: new arrivals wait in a bounded
// priority queue instead of starting immediately and shoving every run —
// themselves included — toward disk.
//
// Admit returns ErrQueueFull without queueing when QueueLimit requests are
// already waiting, ErrAdmitDeadline when the request's deadline passes (or
// has already passed) before headroom frees, and ctx.Err() when ctx is
// cancelled while queued. On an unbudgeted engine (MemoryBudget 0) there is
// nothing to arbitrate and Admit returns immediately.
//
// The built-in app methods do not call Admit themselves — pairing it with
// runs is the caller's policy. The kaleidod service admits every job before
// dispatching it; see internal/service.
func (en *Engine) Admit(ctx context.Context, req AdmitRequest) (*Admission, error) {
	ctx = ctxOrBackground(ctx)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if !req.Deadline.IsZero() && !time.Now().Before(req.Deadline) {
		return nil, fmt.Errorf("expired %s ago before queueing: %w",
			time.Since(req.Deadline).Round(time.Millisecond), ErrAdmitDeadline)
	}
	if en.AdmitWatermark < 0 || en.AdmitWatermark > 1 {
		return nil, fmt.Errorf("kaleido: AdmitWatermark %v outside [0, 1]", en.AdmitWatermark)
	}
	if en.MemoryBudget <= 0 {
		return &Admission{en: en}, nil
	}

	en.admitMu.Lock()
	if len(en.waiters) >= en.queueLimit() {
		n := len(en.waiters)
		en.admitMu.Unlock()
		return nil, fmt.Errorf("%d requests waiting (QueueLimit %d): %w", n, en.queueLimit(), ErrQueueFull)
	}
	w := &admitWaiter{req: req, seq: en.admitSeq, ready: make(chan *Admission, 1)}
	en.admitSeq++
	en.waiters = append(en.waiters, w)
	en.dispatchLocked()
	en.admitMu.Unlock()

	var deadlineC <-chan time.Time
	if !req.Deadline.IsZero() {
		timer := time.NewTimer(time.Until(req.Deadline))
		defer timer.Stop()
		deadlineC = timer.C
	}
	poll := time.NewTicker(admitPoll)
	defer poll.Stop()
	for {
		select {
		case adm := <-w.ready:
			return adm, nil
		case <-ctx.Done():
			en.abandon(w)
			return nil, ctx.Err()
		case <-deadlineC:
			en.abandon(w)
			return nil, fmt.Errorf("no headroom within the deadline (queued %s): %w",
				time.Until(req.Deadline).Round(time.Millisecond), ErrAdmitDeadline)
		case <-poll.C:
			en.kickAdmission()
		}
	}
}

func (en *Engine) queueLimit() int {
	if en.QueueLimit > 0 {
		return en.QueueLimit
	}
	return DefaultQueueLimit
}

func (en *Engine) admitLimit() int64 {
	wm := en.AdmitWatermark
	if wm == 0 {
		wm = DefaultAdmitWatermark
	}
	return int64(wm * float64(en.MemoryBudget))
}

// kickAdmission re-evaluates the queue head; called whenever headroom may
// have grown (an Admission released, a run finished, a poll tick).
func (en *Engine) kickAdmission() {
	en.admitMu.Lock()
	en.dispatchLocked()
	en.admitMu.Unlock()
}

// dispatchLocked admits queue heads while they fit. Order is strict: highest
// priority first, FIFO within a priority, and no bypass — if the head does
// not fit, nothing behind it is considered. Bypass would let a stream of
// small jobs starve a large one indefinitely; head-of-line blocking bounds
// every job's wait by the jobs ahead of it.
func (en *Engine) dispatchLocked() {
	if len(en.waiters) == 0 {
		return
	}
	arb := en.arbiter()
	limit := en.admitLimit()
	// The queue is small (≤QueueLimit) and dispatch is not a hot path: sort
	// on every pass instead of maintaining a heap.
	sort.SliceStable(en.waiters, func(i, j int) bool {
		if en.waiters[i].req.Priority != en.waiters[j].req.Priority {
			return en.waiters[i].req.Priority > en.waiters[j].req.Priority
		}
		return en.waiters[i].seq < en.waiters[j].seq
	})
	for len(en.waiters) > 0 {
		w := en.waiters[0]
		need := w.req.ProjectedBytes
		if need < 0 {
			need = 0
		}
		if need > limit {
			need = limit // oversized jobs admit on an idle engine
		}
		if arb.Live()+arb.Reserved()+need > limit {
			return
		}
		w.ready <- &Admission{en: en, res: arb.Reserve(need)}
		en.waiters = en.waiters[1:]
	}
}

// abandon removes w from the queue (ctx cancel or deadline expiry). If w was
// admitted concurrently — dispatch won the race — the admission is taken
// back and released so its reservation cannot leak.
func (en *Engine) abandon(w *admitWaiter) {
	en.admitMu.Lock()
	for i, q := range en.waiters {
		if q == w {
			en.waiters = append(en.waiters[:i], en.waiters[i+1:]...)
			en.admitMu.Unlock()
			return
		}
	}
	en.admitMu.Unlock()
	select {
	case adm := <-w.ready:
		adm.Release()
	default:
	}
}

// ProjectResidentBytes projects the peak resident footprint of running app
// over the graph — the admission-control input. No level exists yet, so the
// projection extrapolates a fan-out trend from the degree alone:
// level-1 holds one unit per seed (N vertices, or M edges for FSM), each
// expansion multiplies the frontier by roughly half the average degree (the
// canonical filter keeps ascending extensions only), and a stored embedding
// costs a vertex word plus its share of the bounds and parent arrays. The
// terminal level of every built-in app is consumed at the frontier (sinks),
// so only k−1 levels are priced.
//
// This is a coarse upper-band estimate, not a promise: admission only needs
// projections that are deterministic and ordered like the true footprints.
// A run that outgrows its projection is still governed by the spill
// watermark — it spills, it does not blow the budget.
func (g *Graph) ProjectResidentBytes(app App, k int) int64 {
	const unitBytes = 12 // vert word + bounds/parent share, see storage.HybridLevel.Bytes
	seeds := int64(g.N())
	levels := k - 1 // terminal level is sink-consumed, never stored
	switch app {
	case AppTriangles:
		levels = 2 // stored 1- and 2-vertex levels; triangles counted at the frontier
	case AppFSM:
		seeds = int64(g.M()) // edge-induced: level 1 is the edge set
	}
	if levels < 1 {
		levels = 1
	}
	growth := g.AvgDegree() / 2
	if growth < 1 {
		growth = 1
	}
	const ceiling = int64(1) << 50 // past any real budget; avoids overflow
	total := int64(0)
	count := float64(seeds)
	for l := 1; l <= levels; l++ {
		total += int64(count * unitBytes)
		if total < 0 || total > ceiling {
			return ceiling
		}
		count *= growth
	}
	return total
}
