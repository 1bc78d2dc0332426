package storage

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"syscall"
	"time"

	"kaleido/internal/memtrack"
	"kaleido/internal/storage/vfs"
)

// Typed spill-path error taxonomy. Every error escaping the storage layer
// wraps exactly one of these sentinels, so callers classify failures with
// errors.Is instead of string matching.
var (
	// ErrSpillIO marks an I/O failure on a spill file that persisted after
	// bounded retries (or was not worth retrying).
	ErrSpillIO = errors.New("spill I/O failure")
	// ErrSpillCorrupt marks a spill block whose content failed validation —
	// checksum mismatch, bad version, truncation, or impossible header.
	// Never retried: the bytes on disk are wrong, not the transport.
	ErrSpillCorrupt = errors.New("spill data corrupt")
	// ErrNoSpace marks a hard out-of-space failure (ENOSPC). Never retried:
	// the governor stops spilling and the run aborts cleanly.
	ErrNoSpace = errors.New("no space left for spill")
)

// CorruptError pinpoints a corrupt codec block: which spill file, which
// block within it, and what failed. It unwraps to ErrSpillCorrupt.
type CorruptError struct {
	// Path is the spill file containing the bad block.
	Path string
	// Block is the zero-based index of the bad block within its part's vert
	// or cnt stream.
	Block int
	// Detail says what validation failed.
	Detail string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("storage: %s block %d of %s: %s", ErrSpillCorrupt.Error(), e.Block, e.Path, e.Detail)
}

func (e *CorruptError) Unwrap() error { return ErrSpillCorrupt }

// corruptAt wraps err (or a plain detail) into a CorruptError carrying block
// coordinates.
func corruptAt(path string, block int, err error) error {
	return &CorruptError{Path: path, Block: block, Detail: err.Error()}
}

// locateCorrupt attaches block coordinates to corruption reported by a layer
// that knows only the file — retryReadAt's truncation; other errors pass
// through unchanged.
func locateCorrupt(err error, path string, block int) error {
	if errors.Is(err, ErrSpillCorrupt) {
		return corruptAt(path, block, err)
	}
	return err
}

// wrapIO classifies err as ErrNoSpace (ENOSPC) or ErrSpillIO and wraps it
// with the failing operation and path. Both the sentinel and the original
// error stay reachable through errors.Is/As.
func wrapIO(op, path string, err error) error {
	sentinel := ErrSpillIO
	if errors.Is(err, syscall.ENOSPC) {
		sentinel = ErrNoSpace
	}
	return fmt.Errorf("storage: %s %s: %w: %w", op, path, sentinel, err)
}

// retryable reports whether err is worth retrying: transient I/O errors are,
// while nil, out-of-space, corruption, and truncation (EOF on a read that
// expected data — the file is short, rereading won't grow it) are not.
func retryable(err error) bool {
	switch {
	case err == nil:
		return false
	case errors.Is(err, syscall.ENOSPC):
		return false
	case errors.Is(err, ErrSpillCorrupt):
		return false
	case errors.Is(err, io.EOF), errors.Is(err, io.ErrUnexpectedEOF):
		return false
	}
	return true
}

// Retry policy for transient spill I/O errors: up to retryAttempts retries
// with exponential backoff from retryBase capped at retryCap, plus up to 50%
// jitter so concurrent workers don't retry in lockstep.
const (
	retryAttempts = 5
	retryBase     = time.Millisecond
	retryCap      = 100 * time.Millisecond
)

// sleepBackoff sleeps the backoff for the given zero-based attempt, returning
// early with false if cancel closes first (nil cancel never fires). Reports
// true when the full backoff elapsed and the caller should retry.
func sleepBackoff(attempt int, cancel <-chan struct{}) bool {
	d := retryBase << uint(attempt)
	if d > retryCap {
		d = retryCap
	}
	d += time.Duration(rand.Int63n(int64(d)/2 + 1))
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-cancel:
		return false
	}
}

// retryReadAt fully reads len(buf) bytes at off, retrying transient errors
// with backoff. EOF / short reads mean the file is truncated and surface as
// corruption; other exhausted or hard errors surface via wrapIO. cancel may
// be nil (no cancellation); each retry is counted on tracker when non-nil.
func retryReadAt(f vfs.File, buf []byte, off int64, cancel <-chan struct{}, tracker *memtrack.Tracker) error {
	for attempt := 0; ; attempt++ {
		_, err := f.ReadAt(buf, off)
		if err == nil {
			return nil
		}
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return fmt.Errorf("storage: read %d bytes at %d of %s: truncated: %w: %w",
				len(buf), off, f.Name(), ErrSpillCorrupt, err)
		}
		if !retryable(err) || attempt >= retryAttempts {
			return wrapIO("read", f.Name(), err)
		}
		if tracker != nil {
			tracker.NoteIORetry()
		}
		if !sleepBackoff(attempt, cancel) {
			return wrapIO("read", f.Name(), err)
		}
	}
}
