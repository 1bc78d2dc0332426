package storage

import (
	"sync"

	"kaleido/internal/memtrack"
	"kaleido/internal/storage/vfs"
)

// DefaultBlockSize is the prefetch window granularity for disk cursors.
const DefaultBlockSize = 256 << 10

// fileSpan is a byte range of one file.
type fileSpan struct {
	f   vfs.File
	off int64
	n   int64
}

// blockStream reads one file span as fixed-size windows with one window of
// read-ahead — the sliding window of §4.1: while the caller processes the
// main window, the goroutine loads the candidate window into the other; when
// the caller hands the main window back (release), the window slides. The
// two windows are the caller's, reused from stream to stream, so a stream
// allocates no window of its own.
type blockStream struct {
	ch       chan rblock
	free     chan []byte // windows the goroutine may fill
	stop     chan struct{}
	stopOnce func()
	err      error
	done     bool
}

type rblock struct {
	data []byte
	err  error
}

// newBlockStream starts the read-ahead goroutine over sp, filling win's
// windows in turn, each grown only as far as sp needs.
func newBlockStream(sp fileSpan, blockSize int, tracker *memtrack.Tracker, win *[2][]byte) *blockStream {
	if blockSize <= 0 {
		blockSize = DefaultBlockSize
	}
	blockSize = blockSize &^ 7 // keep 8-byte alignment for uint64 streams
	if blockSize == 0 {
		blockSize = 8
	}
	s := &blockStream{
		ch:   make(chan rblock, 1),
		free: make(chan []byte, len(win)),
		stop: make(chan struct{}),
	}
	// A window is as long as the span needs, up to blockSize, and a span
	// that fits in one window uses only one: a cursor over small spans keeps
	// small windows.
	size, nwin := int(min(int64(blockSize), sp.n)), 1
	if sp.n > int64(blockSize) {
		nwin = 2
	}
	for i := 0; i < nwin; i++ {
		if cap(win[i]) < size {
			win[i] = make([]byte, size)
		}
		s.free <- win[i][:size]
	}
	var once sync.Once
	s.stopOnce = func() { once.Do(func() { close(s.stop) }) }
	go func() {
		defer close(s.ch)
		for off := int64(0); off < sp.n; off += int64(blockSize) {
			var buf []byte
			select {
			case buf = <-s.free:
			case <-s.stop:
				return
			}
			buf = buf[:min(int64(blockSize), sp.n-off)]
			// Transient read errors retry with backoff; Close (s.stop)
			// interrupts a backoff sleep so teardown never waits one out.
			// EOF means the spill file is shorter than its directory says
			// — truncation, surfaced as corruption inside retryReadAt.
			if err := retryReadAt(sp.f, buf, sp.off+off, s.stop, tracker); err != nil {
				select {
				case s.ch <- rblock{err: err}:
				case <-s.stop:
				}
				return
			}
			if tracker != nil {
				tracker.ReadIO(int64(len(buf)))
			}
			select {
			case s.ch <- rblock{data: buf}:
			case <-s.stop:
				return
			}
		}
	}()
	return s
}

// next returns the next window, one channel receive per window instead of
// one dynamic call per word. The caller hands it back with release once it
// is done with its bytes; it holds at most one window at a time.
func (s *blockStream) next() ([]byte, bool) {
	if s.err != nil || s.done {
		return nil, false
	}
	b, ok := <-s.ch
	if !ok {
		s.done = true
		return nil, false
	}
	if b.err != nil {
		s.err = b.err
		return nil, false
	}
	return b.data, true
}

// release hands a window next returned back to the goroutine. It never
// blocks: only two windows exist.
func (s *blockStream) release(buf []byte) { s.free <- buf }

// Err returns the first stream error.
func (s *blockStream) Err() error { return s.err }

// Close stops the prefetch goroutine, after which its windows are the
// caller's again. Safe to call multiple times.
func (s *blockStream) Close() error {
	s.stopOnce()
	// Drain so the goroutine is not blocked on send.
	for range s.ch {
	}
	return nil
}
