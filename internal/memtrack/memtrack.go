// Package memtrack provides the memory and I/O accounting used by the
// evaluation harness (§6): explicit byte counters for the major data
// structures (CSE levels, the comparators' tables) with peak watermarks, plus
// read/write I/O counters for the hybrid storage experiments (Fig. 15).
// Explicit accounting is used instead of runtime.MemStats because the
// paper's memory-consumption tables compare data-structure footprints, which
// GC-managed heap sizes would blur.
//
// An Arbiter extends the accounting across concurrent runs: child trackers
// forward every charge to a combined pool, so one memory budget can be
// shared by N co-located runs (the engine's multi-run surface).
//
// The counters only count: nothing here reacts when a count crosses a
// limit. The one reader that does is the hybrid level builder's governor
// (internal/storage), which compares SharedLive with its spill watermark at
// every charge.
package memtrack

import (
	"sync/atomic"
	"time"
)

// Tracker accumulates live bytes, a peak watermark, and I/O totals. All
// methods are safe for concurrent use. The zero value is ready to use.
type Tracker struct {
	live dialAtomic
	peak atomic.Int64

	// parent, when non-nil, is the Arbiter whose combined pool this
	// tracker's allocations also charge: every Alloc/Free (and I/O count)
	// is forwarded, so budget decisions can be made against the total of
	// all sibling runs instead of this run alone.
	parent *Arbiter

	readBytes  atomic.Int64
	writeBytes atomic.Int64

	// Spilled level data, counted once per sealed part: logical is the raw
	// word size of the spilled values, physical the bytes that actually hit
	// disk — equal unless the spill files are compressed.
	spillLogical  atomic.Int64
	spillPhysical atomic.Int64

	// ioRetries counts transient spill I/O errors that were retried (each
	// backoff sleep is one retry) — the robustness counter behind
	// Stats.IORetries.
	ioRetries atomic.Int64

	samples  []IOSample
	sampleMu chan struct{} // 1-buffered semaphore guarding samples
}

type dialAtomic struct{ v atomic.Int64 }

// IOSample is one point of the I/O timeline (Fig. 15's read/write series).
type IOSample struct {
	At         time.Time
	ReadBytes  int64 // cumulative
	WriteBytes int64 // cumulative
}

// New returns a fresh tracker.
func New() *Tracker {
	t := &Tracker{sampleMu: make(chan struct{}, 1)}
	t.sampleMu <- struct{}{}
	return t
}

// Arbiter shares one memory budget across the trackers of concurrent runs.
// Each run keeps its own child Tracker (per-run Stats stay per-run), but
// every allocation is also charged to the arbiter's combined pool, so the
// §4.1 spill governor reads the total resident bytes of all co-located runs
// — N runs together respect one budget instead of each believing it owns the
// whole machine. The Arbiter embeds a Tracker holding the combined
// accounting.
type Arbiter struct {
	Tracker
	budget int64

	// reserved is the sum of outstanding admission reservations: bytes a
	// queued-then-released run is projected to allocate but has not yet.
	// Reservations never charge Live (they must not trigger the spill
	// governor); they only narrow the headroom admission decisions see.
	reserved atomic.Int64
}

// NewArbiter creates an arbiter for one shared budget (0 = unbudgeted, the
// combined accounting is still kept).
func NewArbiter(budget int64) *Arbiter {
	a := &Arbiter{budget: budget}
	a.sampleMu = make(chan struct{}, 1)
	a.sampleMu <- struct{}{}
	return a
}

// Budget returns the shared budget the arbiter was created with.
func (a *Arbiter) Budget() int64 { return a.budget }

// Reservation is a claim on future budget headroom, held by an admission
// controller from the moment a run is released until the run completes. It
// does not charge Live — a reservation must never trigger spilling in the
// sibling runs — it only reduces the headroom later admission decisions see,
// so N runs released in quick succession cannot all be admitted against the
// same free bytes before any of them has allocated.
type Reservation struct {
	a        *Arbiter
	n        int64
	released atomic.Bool
}

// Reserve claims n bytes of budget headroom and returns the handle that
// gives them back. Negative n is treated as zero.
func (a *Arbiter) Reserve(n int64) *Reservation {
	if n < 0 {
		n = 0
	}
	a.reserved.Add(n)
	return &Reservation{a: a, n: n}
}

// Release returns the reservation's bytes to the headroom pool. Safe to call
// more than once; only the first call has an effect.
func (r *Reservation) Release() {
	if r == nil || !r.released.CompareAndSwap(false, true) {
		return
	}
	r.a.reserved.Add(-r.n)
}

// Bytes returns the size the reservation was taken out for.
func (r *Reservation) Bytes() int64 { return r.n }

// Reserved returns the sum of outstanding reservations.
func (a *Arbiter) Reserved() int64 { return a.reserved.Load() }

// NewTracker vends a child tracker whose allocations charge both itself and
// the arbiter's combined pool.
func (a *Arbiter) NewTracker() *Tracker {
	t := New()
	t.parent = a
	return t
}

// SharedLive returns the live bytes of the whole budget scope: the combined
// total of all sibling trackers when this tracker is the child of an
// Arbiter, the tracker's own live bytes otherwise. It is the spill
// governor's one input: budget and watermark decisions must use this, not
// Live — under an arbiter the watermark is a cross-run property.
func (t *Tracker) SharedLive() int64 {
	if t.parent != nil {
		return t.parent.Live()
	}
	return t.Live()
}

// Alloc records n live bytes and updates the peak watermark.
func (t *Tracker) Alloc(n int64) {
	if t.parent != nil {
		t.parent.Tracker.Alloc(n)
	}
	live := t.live.v.Add(n)
	for {
		p := t.peak.Load()
		if live <= p || t.peak.CompareAndSwap(p, live) {
			return
		}
	}
}

// Free releases n live bytes.
func (t *Tracker) Free(n int64) {
	if t.parent != nil {
		t.parent.Tracker.Free(n)
	}
	t.live.v.Add(-n)
}

// Live returns the current live byte count.
func (t *Tracker) Live() int64 { return t.live.v.Load() }

// Peak returns the high watermark of live bytes.
func (t *Tracker) Peak() int64 { return t.peak.Load() }

// ReadIO records n bytes read from disk.
func (t *Tracker) ReadIO(n int64) {
	if t.parent != nil {
		t.parent.readBytes.Add(n)
	}
	t.readBytes.Add(n)
}

// WriteIO records n bytes written to disk.
func (t *Tracker) WriteIO(n int64) {
	if t.parent != nil {
		t.parent.writeBytes.Add(n)
	}
	t.writeBytes.Add(n)
}

// SpillIO records one sealed spill part: logical raw bytes vs the physical
// bytes written, the pair that separates level size from disk footprint when
// spill files are compressed.
func (t *Tracker) SpillIO(logical, physical int64) {
	if t.parent != nil {
		t.parent.spillLogical.Add(logical)
		t.parent.spillPhysical.Add(physical)
	}
	t.spillLogical.Add(logical)
	t.spillPhysical.Add(physical)
}

// NoteIORetry records one retried transient spill I/O error.
func (t *Tracker) NoteIORetry() {
	if t.parent != nil {
		t.parent.ioRetries.Add(1)
	}
	t.ioRetries.Add(1)
}

// IORetries returns the cumulative count of retried transient I/O errors.
func (t *Tracker) IORetries() int64 { return t.ioRetries.Load() }

// SpillTotals returns cumulative (logical, physical) spilled bytes.
func (t *Tracker) SpillTotals() (logical, physical int64) {
	return t.spillLogical.Load(), t.spillPhysical.Load()
}

// IOTotals returns cumulative (read, write) bytes.
func (t *Tracker) IOTotals() (read, write int64) {
	return t.readBytes.Load(), t.writeBytes.Load()
}

// SampleIO appends a timeline point with the current cumulative totals.
func (t *Tracker) SampleIO() {
	r, w := t.IOTotals()
	<-t.sampleMu
	t.samples = append(t.samples, IOSample{At: time.Now(), ReadBytes: r, WriteBytes: w})
	t.sampleMu <- struct{}{}
}

// Samples returns a copy of the I/O timeline.
func (t *Tracker) Samples() []IOSample {
	<-t.sampleMu
	out := append([]IOSample(nil), t.samples...)
	t.sampleMu <- struct{}{}
	return out
}

// Reset clears all counters and samples.
func (t *Tracker) Reset() {
	t.live.v.Store(0)
	t.peak.Store(0)
	t.readBytes.Store(0)
	t.writeBytes.Store(0)
	t.spillLogical.Store(0)
	t.spillPhysical.Store(0)
	t.ioRetries.Store(0)
	<-t.sampleMu
	t.samples = nil
	t.sampleMu <- struct{}{}
}
