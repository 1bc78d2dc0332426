package explore

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// TestRunParallelCancelsOnError verifies that the first worker error stops
// the other workers from pulling further chunks: the failed workload must
// not run to completion.
func TestRunParallelCancelsOnError(t *testing.T) {
	e := &Explorer{threads: 2}
	var executed atomic.Int64
	boom := errors.New("boom")
	err := e.runParallel(bgCtx, 100, func(worker, chunk int) error {
		executed.Add(1)
		if chunk == 0 {
			time.Sleep(5 * time.Millisecond) // let the peer start churning
			return boom
		}
		time.Sleep(time.Millisecond)
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if n := executed.Load(); n > 50 {
		t.Fatalf("executed %d of 100 chunks after a failure; cancellation not propagated", n)
	}
}

// TestRunParallelCompletesWithoutError runs every chunk exactly once.
func TestRunParallelCompletesWithoutError(t *testing.T) {
	e := &Explorer{threads: 4}
	seen := make([]atomic.Int32, 64)
	if err := e.runParallel(bgCtx, 64, func(worker, chunk int) error {
		seen[chunk].Add(1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for c := range seen {
		if got := seen[c].Load(); got != 1 {
			t.Fatalf("chunk %d executed %d times", c, got)
		}
	}
}

// TestRunParallelCtxCancel verifies workers stop pulling chunks once the
// context is cancelled and surface ctx.Err().
func TestRunParallelCtxCancel(t *testing.T) {
	e := &Explorer{threads: 2}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var executed atomic.Int64
	err := e.runParallel(ctx, 100, func(worker, chunk int) error {
		if executed.Add(1) == 3 {
			cancel()
		}
		time.Sleep(time.Millisecond)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := executed.Load(); n > 50 {
		t.Fatalf("executed %d of 100 chunks after cancellation", n)
	}
}
