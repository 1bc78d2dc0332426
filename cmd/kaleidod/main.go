// Command kaleidod serves mining jobs over HTTP: a long-lived daemon that
// multiplexes every submitted job through one kaleido.Engine, so N jobs
// share one memory budget under admission control instead of each assuming
// it owns the machine.
//
// Usage:
//
//	kaleidod -addr :8080 -budget 2GiB -spill /tmp/kaleidod
//
// Submit jobs as JSON (the same JobSpec encoding the kaleido CLI prints with
// -print-spec):
//
//	curl -s -X POST localhost:8080/jobs -d '{"app":"motif","k":4,"dataset":"mico"}'
//	curl -s localhost:8080/jobs/j1
//	curl -s localhost:8080/jobs/j1/result
//	curl -s localhost:8080/metrics
//
// SIGTERM (or SIGINT) drains gracefully: submissions are refused, in-flight
// jobs run to completion (up to -drain-timeout, then they are canceled and
// their spill files reclaimed), and the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"kaleido"
	"kaleido/internal/service"
)

func main() {
	addr := flag.String("addr", ":8080", "HTTP listen address")
	budget := flag.String("budget", "", "shared memory budget for intermediate data (e.g. 2GiB); empty = in-memory")
	spill := flag.String("spill", os.TempDir(), "spill directory for hybrid storage")
	threads := flag.Int("threads", 0, "default per-job worker threads (0 = all CPUs)")
	queueLimit := flag.Int("queue-limit", 0, "admission queue bound (0 = default 64)")
	admitWM := flag.Float64("admit-watermark", 0, "fraction of the budget admitted work may plan to fill (0 = default 0.8)")
	cacheDir := flag.String("cache-dir", service.DefaultCacheDir(), "on-disk dataset cache (empty = regenerate per load)")
	cacheGraphs := flag.Int("cache-graphs", 4, "idle graphs kept in the in-memory cache")
	drainTimeout := flag.Duration("drain-timeout", time.Minute, "how long a shutdown waits for in-flight jobs before canceling them")
	flag.Parse()

	eng := &kaleido.Engine{
		SpillDir:       *spill,
		Threads:        *threads,
		QueueLimit:     *queueLimit,
		AdmitWatermark: *admitWM,
	}
	if *budget != "" {
		b, err := service.ParseBytes(*budget)
		if err != nil {
			log.Fatalf("kaleidod: %v", err)
		}
		eng.MemoryBudget = b
	}

	srv := service.NewServer(eng, *cacheDir, *cacheGraphs)
	httpSrv := service.NewHTTPServer(*addr, srv)

	// SIGTERM/SIGINT: refuse new jobs, let in-flight ones finish (bounded by
	// -drain-timeout, after which they are canceled and unwind cleanly), then
	// close the listener.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	defer stop()
	done := make(chan struct{})
	go func() {
		defer close(done)
		<-ctx.Done()
		log.Printf("kaleidod: draining (timeout %s)", *drainTimeout)
		drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := srv.Drain(drainCtx); err != nil {
			log.Printf("kaleidod: drain timed out, in-flight jobs canceled")
		}
		shutCtx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel2()
		httpSrv.Shutdown(shutCtx)
	}()

	log.Printf("kaleidod: serving on %s (budget %s, spill %s)", *addr, orDash(*budget), *spill)
	err := httpSrv.ListenAndServe()
	if !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("kaleidod: %v", err)
	}
	<-done
	log.Printf("kaleidod: drained, bye")
}

func orDash(s string) string {
	if s == "" {
		return "none"
	}
	return s
}
