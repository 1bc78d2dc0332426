package kaleido

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// waitQueued polls until the engine reports n queued admission requests.
func waitQueued(t *testing.T, eng *Engine, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for eng.Stats().QueuedRuns != n {
		if time.Now().After(deadline) {
			t.Fatalf("queue never reached %d waiters (at %d)", n, eng.Stats().QueuedRuns)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAdmitImmediate covers the paths that never queue: an unbudgeted engine
// has nothing to arbitrate, and a budgeted-but-idle engine admits a fitting
// request on the spot.
func TestAdmitImmediate(t *testing.T) {
	eng := &Engine{}
	adm, err := eng.Admit(bgCtx, AdmitRequest{ProjectedBytes: 1 << 40})
	if err != nil {
		t.Fatalf("unbudgeted Admit = %v", err)
	}
	adm.Release()
	adm.Release() // idempotent

	eng = &Engine{MemoryBudget: 1000}
	adm, err = eng.Admit(bgCtx, AdmitRequest{ProjectedBytes: 100})
	if err != nil {
		t.Fatalf("idle Admit = %v", err)
	}
	if got := eng.Stats().ReservedBytes; got != 100 {
		t.Fatalf("ReservedBytes = %d, want 100", got)
	}
	adm.Release()
	if got := eng.Stats().ReservedBytes; got != 0 {
		t.Fatalf("ReservedBytes after Release = %d, want 0", got)
	}

	// An oversized projection clamps to the watermark instead of wedging.
	adm, err = eng.Admit(bgCtx, AdmitRequest{ProjectedBytes: 1 << 40})
	if err != nil {
		t.Fatalf("oversized Admit on idle engine = %v", err)
	}
	adm.Release()

	// A nil Admission is safe to release (the no-op path of error handling).
	var nilAdm *Admission
	nilAdm.Release()
}

// TestAdmitPriorityOrder fills the budget, queues requests with mixed
// priorities, and checks the grant order: highest priority first, FIFO
// within a priority, each grant waiting for the previous holder's release.
func TestAdmitPriorityOrder(t *testing.T) {
	const budget = 1000
	eng := &Engine{MemoryBudget: budget}
	blocker, err := eng.Admit(bgCtx, AdmitRequest{ProjectedBytes: budget})
	if err != nil {
		t.Fatal(err)
	}

	// Each waiter needs the whole watermark, so grants serialize and the
	// recorded order is the dispatch order. Enqueue one at a time — seq
	// (FIFO rank) follows submission order.
	type sub struct {
		label    string
		priority int
	}
	subs := []sub{{"low-1", 1}, {"high-1", 5}, {"low-2", 1}, {"high-2", 5}, {"mid", 3}}
	var mu sync.Mutex
	var order []string
	var wg sync.WaitGroup
	for i, s := range subs {
		wg.Add(1)
		go func(s sub) {
			defer wg.Done()
			adm, err := eng.Admit(bgCtx, AdmitRequest{ProjectedBytes: budget, Priority: s.priority})
			if err != nil {
				t.Errorf("%s: %v", s.label, err)
				return
			}
			mu.Lock()
			order = append(order, s.label)
			mu.Unlock()
			adm.Release()
		}(s)
		waitQueued(t, eng, i+1)
	}

	blocker.Release()
	wg.Wait()
	want := []string{"high-1", "high-2", "mid", "low-1", "low-2"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("grant order %v, want %v", order, want)
	}
	if got := eng.Stats().ReservedBytes; got != 0 {
		t.Fatalf("ReservedBytes after all releases = %d, want 0", got)
	}
}

// TestAdmitDeadline covers both deadline paths: an already-expired deadline
// fails fast without queueing, and a queued request fails with
// ErrAdmitDeadline when its deadline passes first — leaving no reservation
// and no queue entry behind.
func TestAdmitDeadline(t *testing.T) {
	eng := &Engine{MemoryBudget: 1000}
	if _, err := eng.Admit(bgCtx, AdmitRequest{Deadline: time.Now().Add(-time.Second)}); !errors.Is(err, ErrAdmitDeadline) {
		t.Fatalf("pre-expired Admit = %v, want ErrAdmitDeadline", err)
	}

	blocker, err := eng.Admit(bgCtx, AdmitRequest{ProjectedBytes: 1000})
	if err != nil {
		t.Fatal(err)
	}
	defer blocker.Release()
	start := time.Now()
	_, err = eng.Admit(bgCtx, AdmitRequest{ProjectedBytes: 1000, Deadline: time.Now().Add(30 * time.Millisecond)})
	if !errors.Is(err, ErrAdmitDeadline) {
		t.Fatalf("queued Admit past deadline = %v, want ErrAdmitDeadline", err)
	}
	if waited := time.Since(start); waited < 25*time.Millisecond {
		t.Fatalf("deadline fired after %v — did not actually queue", waited)
	}
	st := eng.Stats()
	if st.QueuedRuns != 0 {
		t.Fatalf("QueuedRuns after deadline expiry = %d, want 0", st.QueuedRuns)
	}
	// The blocker's oversized projection was clamped to the admit limit
	// (0.8·budget); that clamp must be all that remains reserved.
	if st.ReservedBytes != 800 {
		t.Fatalf("ReservedBytes = %d, want the blocker's clamped 800 only", st.ReservedBytes)
	}
}

// TestAdmitQueueFull checks the bounded queue: past QueueLimit waiters, new
// requests are rejected immediately with ErrQueueFull.
func TestAdmitQueueFull(t *testing.T) {
	eng := &Engine{MemoryBudget: 1000, QueueLimit: 2}
	blocker, err := eng.Admit(bgCtx, AdmitRequest{ProjectedBytes: 1000})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := eng.Admit(ctx, AdmitRequest{ProjectedBytes: 1000}); !errors.Is(err, context.Canceled) {
				t.Errorf("queued Admit = %v, want context.Canceled", err)
			}
		}()
	}
	waitQueued(t, eng, 2)
	if _, err := eng.Admit(bgCtx, AdmitRequest{ProjectedBytes: 1}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("Admit over QueueLimit = %v, want ErrQueueFull", err)
	}
	cancel()
	wg.Wait()
	blocker.Release()
	if got := eng.Stats().ReservedBytes; got != 0 {
		t.Fatalf("ReservedBytes = %d, want 0", got)
	}
}

// TestAdmitCancelReleasesQueue cancels a queued request and checks that it
// leaves the queue intact for the waiter behind it: once the blocker
// releases, the survivor is admitted.
func TestAdmitCancelReleasesQueue(t *testing.T) {
	eng := &Engine{MemoryBudget: 1000}
	blocker, err := eng.Admit(bgCtx, AdmitRequest{ProjectedBytes: 1000})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	canceled := make(chan error, 1)
	go func() {
		_, err := eng.Admit(ctx, AdmitRequest{ProjectedBytes: 1000, Priority: 9})
		canceled <- err
	}()
	waitQueued(t, eng, 1)

	survivor := make(chan *Admission, 1)
	go func() {
		adm, err := eng.Admit(bgCtx, AdmitRequest{ProjectedBytes: 1000})
		if err != nil {
			t.Errorf("survivor Admit = %v", err)
		}
		survivor <- adm
	}()
	waitQueued(t, eng, 2)

	cancel()
	if err := <-canceled; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled Admit = %v, want context.Canceled", err)
	}
	waitQueued(t, eng, 1)

	blocker.Release()
	select {
	case adm := <-survivor:
		adm.Release()
	case <-time.After(5 * time.Second):
		t.Fatal("survivor never admitted after blocker release")
	}
	if got := eng.Stats().ReservedBytes; got != 0 {
		t.Fatalf("ReservedBytes = %d, want 0", got)
	}
}

// TestAdmitAfterRunEnd checks the run-completion dispatch edge: a request
// queued behind a running job is admitted when that job finishes, without
// waiting for an explicit Release of anything.
func TestAdmitAfterRunEnd(t *testing.T) {
	g := paperGraph(t)
	eng := &Engine{MemoryBudget: 1000, SpillDir: t.TempDir()}
	blocker, err := eng.Admit(bgCtx, AdmitRequest{ProjectedBytes: 1000})
	if err != nil {
		t.Fatal(err)
	}
	admitted := make(chan error, 1)
	go func() {
		adm, err := eng.Admit(bgCtx, AdmitRequest{ProjectedBytes: 1})
		adm.Release()
		admitted <- err
	}()
	waitQueued(t, eng, 1)

	// A run ending kicks the dispatcher; with the blocker still holding its
	// reservation the waiter stays queued — only the release lets it through.
	if _, err := eng.Triangles(bgCtx, g, Config{}); err != nil {
		t.Fatal(err)
	}
	blocker.Release()
	select {
	case err := <-admitted:
		if err != nil {
			t.Fatalf("waiter = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter never admitted")
	}
}

// TestProjectResidentBytes sanity-checks the admission projection: positive,
// deterministic, monotone in k, edge-seeded for FSM, and saturating instead
// of overflowing.
func TestProjectResidentBytes(t *testing.T) {
	g, err := Synthetic(600, 2400, 4, 11)
	if err != nil {
		t.Fatal(err)
	}
	p3 := g.ProjectResidentBytes(AppMotifs, 3)
	p4 := g.ProjectResidentBytes(AppMotifs, 4)
	if p3 <= 0 || p4 <= p3 {
		t.Fatalf("motif projections not increasing: k=3 %d, k=4 %d", p3, p4)
	}
	if again := g.ProjectResidentBytes(AppMotifs, 4); again != p4 {
		t.Fatalf("projection not deterministic: %d vs %d", again, p4)
	}
	// FSM seeds the edge set, so its level-1 footprint exceeds a
	// vertex-seeded app's on any graph with M > N.
	if fsm, mot := g.ProjectResidentBytes(AppFSM, 3), g.ProjectResidentBytes(AppMotifs, 3); fsm <= mot {
		t.Fatalf("FSM projection %d not above motif %d despite M > N", fsm, mot)
	}
	// Triangles price the base level alone regardless of K.
	if a, b := g.ProjectResidentBytes(AppTriangles, 3), g.ProjectResidentBytes(AppTriangles, 9); a != b {
		t.Fatalf("triangle projection depends on k: %d vs %d", a, b)
	}
	// A deep run on a dense graph saturates at the ceiling, never negative.
	if p := g.ProjectResidentBytes(AppMotifs, 200); p != int64(1)<<50 {
		t.Fatalf("deep projection = %d, want the %d ceiling", p, int64(1)<<50)
	}
	// The projection prices the levels a real run stores, no more.
	for _, app := range []App{AppMotifs, AppFSM, AppCliques, AppTriangles} {
		for k := 3; k <= 5; k++ {
			var st Stats
			cfg := Config{Threads: 2, Stats: &st}
			switch app {
			case AppMotifs:
				_, err = g.Motifs(bgCtx, k, cfg)
			case AppFSM:
				_, err = g.FSM(bgCtx, k, 100, cfg)
			case AppCliques:
				_, err = g.Cliques(bgCtx, k, cfg)
			case AppTriangles:
				_, err = g.Triangles(bgCtx, cfg)
			}
			if err != nil {
				t.Fatal(err)
			}
			if got := storedLevels(app, k); got != len(st.Levels) {
				t.Fatalf("app %d k=%d: priced %d stored levels, the run stored %d", app, k, got, len(st.Levels))
			}
		}
	}
}
