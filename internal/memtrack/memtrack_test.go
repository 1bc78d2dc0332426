package memtrack

import (
	"sync"
	"testing"
)

func TestPeakTracking(t *testing.T) {
	tr := New()
	tr.Alloc(100)
	tr.Alloc(50)
	tr.Free(120)
	tr.Alloc(10)
	if tr.Live() != 40 {
		t.Fatalf("Live = %d, want 40", tr.Live())
	}
	if tr.Peak() != 150 {
		t.Fatalf("Peak = %d, want 150", tr.Peak())
	}
}

func TestConcurrentAlloc(t *testing.T) {
	tr := New()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				tr.Alloc(3)
				tr.Free(3)
			}
		}()
	}
	wg.Wait()
	if tr.Live() != 0 {
		t.Fatalf("Live = %d, want 0", tr.Live())
	}
	if tr.Peak() < 3 {
		t.Fatalf("Peak = %d, want ≥ 3", tr.Peak())
	}
}

func TestIOCountersAndSamples(t *testing.T) {
	tr := New()
	tr.ReadIO(10)
	tr.WriteIO(20)
	tr.SampleIO()
	tr.ReadIO(5)
	tr.SampleIO()
	r, w := tr.IOTotals()
	if r != 15 || w != 20 {
		t.Fatalf("IOTotals = %d,%d", r, w)
	}
	s := tr.Samples()
	if len(s) != 2 || s[0].ReadBytes != 10 || s[1].ReadBytes != 15 {
		t.Fatalf("samples = %+v", s)
	}
}

func TestReset(t *testing.T) {
	tr := New()
	tr.Alloc(5)
	tr.ReadIO(5)
	tr.SampleIO()
	tr.Reset()
	if tr.Live() != 0 || tr.Peak() != 0 {
		t.Fatal("reset did not clear counters")
	}
	if r, w := tr.IOTotals(); r != 0 || w != 0 {
		t.Fatal("reset did not clear IO")
	}
	if len(tr.Samples()) != 0 {
		t.Fatal("reset did not clear samples")
	}
}

func TestArbiterCombinedAccounting(t *testing.T) {
	a := NewArbiter(1000)
	if a.Budget() != 1000 {
		t.Fatalf("Budget = %d", a.Budget())
	}
	t1, t2 := a.NewTracker(), a.NewTracker()
	t1.Alloc(300)
	t2.Alloc(400)
	if t1.Live() != 300 || t2.Live() != 400 {
		t.Fatalf("child live = %d/%d", t1.Live(), t2.Live())
	}
	if a.Live() != 700 {
		t.Fatalf("combined live = %d, want 700", a.Live())
	}
	if t1.SharedLive() != 700 || t2.SharedLive() != 700 {
		t.Fatalf("SharedLive = %d/%d, want 700", t1.SharedLive(), t2.SharedLive())
	}
	t1.Free(300)
	if a.Live() != 400 || a.Peak() != 700 {
		t.Fatalf("after free: live=%d peak=%d", a.Live(), a.Peak())
	}
	// A parentless tracker's shared scope is itself.
	solo := New()
	solo.Alloc(10)
	if solo.SharedLive() != 10 {
		t.Fatalf("solo SharedLive = %d", solo.SharedLive())
	}
}

func TestArbiterIOForwarding(t *testing.T) {
	a := NewArbiter(0)
	t1, t2 := a.NewTracker(), a.NewTracker()
	t1.ReadIO(5)
	t2.WriteIO(7)
	r, w := a.IOTotals()
	if r != 5 || w != 7 {
		t.Fatalf("combined IO = %d/%d", r, w)
	}
	if r, _ := t1.IOTotals(); r != 5 {
		t.Fatalf("child IO = %d", r)
	}
}

func TestArbiterConcurrent(t *testing.T) {
	a := NewArbiter(1 << 30)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr := a.NewTracker()
			for j := 0; j < 1000; j++ {
				tr.Alloc(3)
				tr.Free(3)
			}
		}()
	}
	wg.Wait()
	if a.Live() != 0 {
		t.Fatalf("combined live = %d, want 0", a.Live())
	}
}

func TestArbiterReservations(t *testing.T) {
	a := NewArbiter(1000)
	if a.Reserved() != 0 {
		t.Fatalf("fresh arbiter reserved = %d", a.Reserved())
	}
	r1 := a.Reserve(300)
	r2 := a.Reserve(-5) // negative clamps to zero
	if a.Reserved() != 300 {
		t.Fatalf("reserved = %d, want 300", a.Reserved())
	}
	if r1.Bytes() != 300 || r2.Bytes() != 0 {
		t.Fatalf("reservation sizes = %d, %d", r1.Bytes(), r2.Bytes())
	}
	// Reservations narrow headroom without charging Live — they must never
	// look like resident bytes to the spill governor.
	if a.Live() != 0 {
		t.Fatalf("reservation charged Live: %d", a.Live())
	}
	r1.Release()
	r1.Release() // idempotent
	r2.Release()
	if a.Reserved() != 0 {
		t.Fatalf("reserved after release = %d, want 0", a.Reserved())
	}
	var nilRes *Reservation
	nilRes.Release() // nil-safe
}

func TestArbiterReservationsConcurrent(t *testing.T) {
	a := NewArbiter(1 << 30)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				r := a.Reserve(7)
				r.Release()
			}
		}()
	}
	wg.Wait()
	if a.Reserved() != 0 {
		t.Fatalf("reserved = %d, want 0", a.Reserved())
	}
}
