package storage

import (
	"errors"
	"io"
	"sync"
	"sync/atomic"

	"kaleido/internal/memtrack"
	"kaleido/internal/storage/vfs"
)

// DefaultBufSize is the per-part write buffer size. The paper uses a fixed
// 16 MB buffer per thread; the default here is smaller because the scaled
// datasets are smaller, and it is configurable either way.
const DefaultBufSize = 1 << 20

// WriteQueue serializes buffer flushes from many writer goroutines onto one
// I/O goroutine — the paper's "writing queue". Buffers are recycled through
// a pool. Compression happens on the writer side, not here: encoding on the
// worker that just produced the values keeps the data cache-hot and scales
// with the worker count, and the queue stays a pure byte sink.
//
// Transient write errors (EIO, short writes) are retried with bounded
// backoff; a hard error (ENOSPC, retries exhausted) latches the queue into a
// failed state — subsequent buffers are discarded, Failed() lets producers
// stop early, and Err() carries the typed first error to the operation's
// Barrier.
type WriteQueue struct {
	start   sync.Once // starts the I/O goroutine, at the first Submit
	jobs    chan wjob // nil until started
	wg      sync.WaitGroup
	pool    sync.Pool
	tracker *memtrack.Tracker

	// aborted makes the I/O goroutine discard buffers instead of writing
	// them — the cancellation path of a failed operation (see Abort).
	aborted atomic.Bool
	// failed latches when a write gave up: like aborted it switches the
	// queue to discard mode, but it is set by the I/O goroutine itself and
	// carries an error.
	failed atomic.Bool

	mu      sync.Mutex
	err     error
	abortCh chan struct{} // closed by Abort; recreated by Reset
}

type wjob struct {
	f    vfs.File
	buf  []byte
	done chan struct{} // non-nil for barrier jobs
}

// NewWriteQueue returns an idle queue: the I/O goroutine starts and the first
// buffer is allocated only when something is actually submitted, so a run
// that never spills pays for neither. tracker may be nil.
func NewWriteQueue(bufSize int, tracker *memtrack.Tracker) *WriteQueue {
	if bufSize <= 0 {
		bufSize = DefaultBufSize
	}
	q := &WriteQueue{tracker: tracker, abortCh: make(chan struct{})}
	q.pool.New = func() any { return make([]byte, 0, bufSize) }
	return q
}

func (q *WriteQueue) run() {
	defer q.wg.Done()
	for j := range q.jobs {
		if j.done != nil {
			close(j.done)
			continue
		}
		if q.aborted.Load() || q.failed.Load() {
			q.pool.Put(j.buf[:0])
			continue
		}
		if err := q.writeAll(j.f, j.buf); err != nil {
			// Record the error before latching failed: producers that see
			// Failed() must find the typed error already at Err().
			q.mu.Lock()
			if q.err == nil {
				q.err = wrapIO("write", j.f.Name(), err)
			}
			q.mu.Unlock()
			q.failed.Store(true)
		} else if q.tracker != nil {
			q.tracker.WriteIO(int64(len(j.buf)))
		}
		q.pool.Put(j.buf[:0])
	}
}

// writeAll appends buf to f, retrying transient errors and short writes with
// bounded backoff. Forward progress (any bytes accepted) re-arms the retry
// budget; Abort interrupts an in-flight backoff sleep immediately.
func (q *WriteQueue) writeAll(f vfs.File, buf []byte) error {
	abort := q.abortSignal()
	for attempt := 0; ; {
		n, err := f.Write(buf)
		if n > 0 {
			buf = buf[n:]
			attempt = 0
		}
		if err == nil {
			if len(buf) == 0 {
				return nil
			}
			err = io.ErrShortWrite
		}
		if retriable := errors.Is(err, io.ErrShortWrite) || retryable(err); !retriable || attempt >= retryAttempts {
			return err
		}
		if q.tracker != nil {
			q.tracker.NoteIORetry()
		}
		if !sleepBackoff(attempt, abort) {
			return err // aborted mid-backoff: surface promptly
		}
		attempt++
	}
}

// abortSignal returns the channel Abort closes. It is re-created by Reset,
// so readers must fetch it under the lock rather than caching it.
func (q *WriteQueue) abortSignal() <-chan struct{} {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.abortCh
}

// GetBuf returns an empty buffer from the pool.
func (q *WriteQueue) GetBuf() []byte { return q.pool.Get().([]byte)[:0] }

// Submit enqueues buf for appending to f. The buffer is owned by the queue
// after the call; get a fresh one with GetBuf.
func (q *WriteQueue) Submit(f vfs.File, buf []byte) {
	if len(buf) == 0 {
		q.pool.Put(buf[:0])
		return
	}
	q.start.Do(func() {
		q.jobs = make(chan wjob, 64)
		q.wg.Add(1)
		go q.run()
	})
	q.jobs <- wjob{f: f, buf: buf}
}

// Abort switches the queue into discard mode: pending and subsequently
// submitted buffers are recycled unwritten until Reset. The write in flight,
// if any, completes — except that a backoff sleep inside its retry loop is
// interrupted immediately, so aborting never waits out a retry schedule.
// Abort the queue before closing or removing the files the pending buffers
// target, then Barrier to drain and Reset to re-arm.
func (q *WriteQueue) Abort() {
	if q.aborted.CompareAndSwap(false, true) {
		q.mu.Lock()
		close(q.abortCh)
		q.mu.Unlock()
	}
}

// Failed reports whether a write gave up and latched the queue into discard
// mode. Producers poll this to stop building work for a doomed operation;
// the typed error is at Err. A nil queue — a build that cannot spill — never
// fails.
func (q *WriteQueue) Failed() bool { return q != nil && q.failed.Load() }

// Reset re-arms an aborted or failed queue for the next operation, clearing
// and returning any recorded write error (the failed operation owns it; the
// next one starts clean).
func (q *WriteQueue) Reset() error {
	q.mu.Lock()
	if q.aborted.Load() {
		q.abortCh = make(chan struct{})
	}
	err := q.err
	q.err = nil
	q.mu.Unlock()
	q.aborted.Store(false)
	q.failed.Store(false)
	return err
}

// Barrier blocks until every previously submitted buffer has been written.
// Like Close it must not race with the first Submit.
func (q *WriteQueue) Barrier() error {
	if q.jobs != nil {
		done := make(chan struct{})
		q.jobs <- wjob{done: done}
		<-done
	}
	return q.Err()
}

// Err returns the first write error.
func (q *WriteQueue) Err() error {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.err
}

// Close drains the queue and stops the I/O goroutine, if it ever started.
func (q *WriteQueue) Close() error {
	if q.jobs != nil {
		close(q.jobs)
		q.wg.Wait()
	}
	return q.Err()
}
