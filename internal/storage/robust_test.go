package storage

// Robustness tests for the hardened spill path: CRC-checked block decodes,
// retry/backoff against injected transient faults, prompt aborts, and the
// typed error taxonomy (ErrSpillIO / ErrSpillCorrupt / ErrNoSpace).

import (
	"errors"
	"io"
	"math/rand"
	"os"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"kaleido/internal/memtrack"
	"kaleido/internal/run"
	"kaleido/internal/storage/vfs"
)

// buildDiskOn builds an all-disk hybrid level (budget ≤ 0) for groups on the
// given vfs, returning build failures instead of failing the test.
func buildDiskOn(t *testing.T, fs vfs.FS, groups [][]uint32, nparts int) (*HybridLevel, *memtrack.Tracker, error) {
	t.Helper()
	tracker := memtrack.New()
	q := NewWriteQueue(256, tracker) // tiny buffers: many queue writes
	t.Cleanup(func() { q.Close() })
	db := NewHybridLevelBuilder(&run.Env{FS: fs, Tracker: tracker}, t.TempDir(), q, 0)
	db.Reset(2, nparts, nil)
	db.blockSize = 128
	per := (len(groups) + nparts - 1) / nparts
	for i, g := range groups {
		if err := appendGroup(db.Part(i/per), g); err != nil {
			db.Abort()
			return nil, tracker, err
		}
	}
	for i := 0; i < nparts; i++ {
		if err := db.Part(i).Flush(); err != nil {
			db.Abort()
			return nil, tracker, err
		}
	}
	dl, err := db.Finish()
	if err != nil {
		return nil, tracker, err
	}
	t.Cleanup(func() { dl.Close() })
	return dl, tracker, nil
}

func readAllVerts(t *testing.T, dl *HybridLevel) ([]uint32, error) {
	t.Helper()
	return readVerts(t, dl.VertBlocks(0, dl.Len()))
}

// TestRetryRidesOutTransientFaults: a fault schedule of EIO reads/writes and
// short writes at p=20% must be absorbed by the retry policy — the level
// builds, every word reads back identical to a fault-free build, and the
// retry counter shows the faults were real.
func TestRetryRidesOutTransientFaults(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	groups := make([][]uint32, 300)
	for i := range groups {
		g := make([]uint32, rng.Intn(6))
		for j := range g {
			g[j] = rng.Uint32() % 5000
		}
		groups[i] = g
	}

	clean, _, err := buildDiskOn(t, nil, groups, 3)
	if err != nil {
		t.Fatal(err)
	}
	want, err := readAllVerts(t, clean)
	if err != nil {
		t.Fatal(err)
	}

	ff := vfs.NewFaultFS(nil, vfs.Fault{Seed: 42, ReadErrP: 0.2, WriteErrP: 0.2, ShortWriteP: 0.2})
	faulty, tracker, err := buildDiskOn(t, ff, groups, 3)
	if err != nil {
		t.Fatalf("build under transient faults: %v", err)
	}
	got, err := readAllVerts(t, faulty)
	if err != nil {
		t.Fatalf("read under transient faults: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("len %d, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("vert %d: %d, want %d", i, got[i], want[i])
		}
	}
	st := ff.Stats()
	if st.WriteErrs+st.ShortWrites == 0 || st.ReadErrs == 0 {
		t.Fatalf("fault schedule injected nothing: %+v", st)
	}
	if tracker.IORetries() == 0 {
		t.Fatal("retries absorbed faults but IORetries counter is zero")
	}
}

// TestChecksumCorruptionLocatesBlock: a flipped payload bit, a truncated
// tail and a bumped version byte, planted in a spilled part's vert and cnt
// files, must surface from the sequential cursors and the random probes as a
// CorruptError carrying the file's name and the block index, never as a
// silent misdecode.
func TestChecksumCorruptionLocatesBlock(t *testing.T) {
	// Several codec blocks per stream, so the damaged block is not block 0.
	groups := make([][]uint32, 2*CntChunk+100)
	rng := rand.New(rand.NewSource(13))
	for i := range groups {
		g := make([]uint32, 1+rng.Intn(3))
		for j := range g {
			g[j] = rng.Uint32() % 100000
		}
		groups[i] = g
	}
	// A fault damages the bytes of one of the level's only part's files.
	type fault func(b []byte) []byte
	faults := map[string]fault{
		"bit-flip":  func(b []byte) []byte { b[len(b)-3] ^= 0x10; return b }, // inside the last block's payload
		"truncated": func(b []byte) []byte { return append([]byte(nil), b[:len(b)-3]...) },
		"version":   func(b []byte) []byte { b[0] = codecVersion + 1; return b },
	}
	for name, damage := range faults {
		_, hl, _ := buildLevels(t, nil, groups, 1, layoutDisk)
		p := &hl.parts[0]
		if _, err := readVerts(t, hl.VertBlocks(0, hl.Len())); err != nil {
			t.Fatal(err)
		}
		vpath, cpath := p.vf.Name(), p.cf.Name()
		for _, path := range []string{vpath, cpath} {
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, damage(b), 0o600); err != nil {
				t.Fatal(err)
			}
		}
		// The version byte is in the first block, the other faults in the
		// last.
		vblk, cblk, unit, group := len(p.comp.vOffs)-1, len(p.comp.cOffs)-1, hl.Len()-1, hl.Groups()-1
		if name == "version" {
			vblk, cblk, unit, group = 0, 0, 0, 1
		}
		check := func(op string, err error, path string, blk int) {
			t.Helper()
			var ce *CorruptError
			if !errors.As(err, &ce) || !errors.Is(err, ErrSpillCorrupt) {
				t.Fatalf("%s: %s returned %v, want a CorruptError", name, op, err)
			}
			if ce.Path != path || ce.Block != blk {
				t.Fatalf("%s: %s blames block %d of %q, want block %d of %q (%v)", name, op, ce.Block, ce.Path, blk, path, err)
			}
		}
		_, err := readVerts(t, hl.VertBlocks(0, hl.Len()))
		check("VertBlocks", err, vpath, vblk)
		_, err = readBounds(hl.BoundBlocks(0))
		check("BoundBlocks", err, cpath, cblk)
		_, err = hl.UnitAt(unit)
		check("UnitAt", err, vpath, vblk)
		_, err = hl.ParentOf(unit)
		check("ParentOf", err, cpath, cblk)
		_, err = hl.GroupStart(group)
		check("GroupStart", err, cpath, cblk)
	}
}

// TestBitFlipViaFaultFSSurfacesCorrupt: the same property end-to-end through
// the injection seam — every read flips a bit, so the first compressed block
// decode must fail the CRC.
func TestBitFlipViaFaultFSSurfacesCorrupt(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	groups := make([][]uint32, 300)
	for i := range groups {
		g := make([]uint32, 1+rng.Intn(4))
		for j := range g {
			g[j] = rng.Uint32() % 4000
		}
		groups[i] = g
	}
	// Build clean, then read through a bit-flipping FS: reads are the only
	// faulted operations, so the build is byte-identical to fault-free.
	ff := vfs.NewFaultFS(nil, vfs.Fault{Seed: 21, BitFlipP: 1})
	dl, _, err := buildDiskOn(t, ff, groups, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := readAllVerts(t, dl); !errors.Is(err, ErrSpillCorrupt) {
		t.Fatalf("bit-flipped read returned %v, want ErrSpillCorrupt", err)
	}
}

// TestNoSpaceIsTerminal: once the device is full, the build fails with
// ErrNoSpace (not a retry storm), and Abort still removes every spill file.
func TestNoSpaceIsTerminal(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	groups := make([][]uint32, 2000)
	for i := range groups {
		g := make([]uint32, 4)
		for j := range g {
			g[j] = rng.Uint32()
		}
		groups[i] = g
	}
	ff := vfs.NewFaultFS(nil, vfs.Fault{Seed: 23, WriteCap: 512})
	_, _, err := buildDiskOn(t, ff, groups, 2)
	if err == nil {
		t.Fatal("build on a full device succeeded")
	}
	if !errors.Is(err, ErrNoSpace) {
		t.Fatalf("full-device error %v does not wrap ErrNoSpace", err)
	}
	if errors.Is(err, ErrSpillIO) {
		t.Fatalf("ENOSPC double-classified as ErrSpillIO: %v", err)
	}
	if st := ff.Stats(); st.NoSpaceFails == 0 {
		t.Fatalf("no ENOSPC was actually injected: %+v", st)
	}
}

// stubFile is a vfs.File whose writes always fail with a scripted error,
// signalling the first attempt and optionally blocking until released — the
// scaffolding of the abort-promptness regression test.
type stubFile struct {
	calls   atomic.Int32
	started chan struct{}
	release chan struct{}
	err     error
}

func (s *stubFile) Write(p []byte) (int, error) {
	if s.calls.Add(1) == 1 {
		close(s.started)
	}
	if s.release != nil {
		<-s.release
	}
	return 0, s.err
}

func (s *stubFile) ReadAt(p []byte, off int64) (int, error) { return 0, io.EOF }
func (s *stubFile) Close() error                            { return nil }
func (s *stubFile) Name() string                            { return "stub" }
func (s *stubFile) Size() (int64, error)                    { return 0, nil }
func (s *stubFile) Sync() error                             { return nil }

// TestWriteQueueAbortInterruptsBackoff is the S2 regression: Abort during an
// in-flight retry must return promptly — the backoff sleep is interrupted,
// the retry schedule is not slept out, and no further write attempts happen.
func TestWriteQueueAbortInterruptsBackoff(t *testing.T) {
	q := NewWriteQueue(64, nil)
	defer q.Close()
	sf := &stubFile{started: make(chan struct{}), release: make(chan struct{}), err: syscall.EIO}
	q.Submit(sf, append(q.GetBuf(), 1, 2, 3))
	<-sf.started // the I/O goroutine is inside the first write attempt
	q.Abort()    // ...and the abort lands before its backoff sleep begins
	close(sf.release)
	start := time.Now()
	_ = q.Barrier()
	if el := time.Since(start); el > retryCap {
		t.Fatalf("aborted retry took %v, longer than one backoff cap %v", el, retryCap)
	}
	if n := sf.calls.Load(); n != 1 {
		t.Fatalf("write attempted %d times after abort, want 1", n)
	}
	if err := q.Reset(); err == nil {
		t.Fatal("Reset cleared no error from the aborted write")
	}
}

// TestSleepBackoffCancel: a closed cancel channel returns immediately even at
// the deepest (capped) backoff step; a nil channel sleeps the schedule out.
func TestSleepBackoffCancel(t *testing.T) {
	closed := make(chan struct{})
	close(closed)
	start := time.Now()
	if sleepBackoff(6, closed) {
		t.Fatal("closed cancel channel reported an uninterrupted sleep")
	}
	if el := time.Since(start); el > retryCap/2 {
		t.Fatalf("cancelled backoff still slept %v", el)
	}
	if !sleepBackoff(0, nil) {
		t.Fatal("nil cancel channel must complete the sleep")
	}
}

// TestRetryReadAtTruncation: a read past EOF is corruption (the directory
// promised more bytes than the file holds), not a retryable I/O error.
func TestRetryReadAtTruncation(t *testing.T) {
	fs := vfs.OrOS(nil)
	name := t.TempDir() + "/trunc.bin"
	f, err := fs.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write(make([]byte, 10)); err != nil {
		t.Fatal(err)
	}
	err = retryReadAt(f, make([]byte, 64), 0, nil, nil)
	if !errors.Is(err, ErrSpillCorrupt) {
		t.Fatalf("truncated read returned %v, want ErrSpillCorrupt", err)
	}
	if errors.Is(err, ErrSpillIO) {
		t.Fatalf("truncation double-classified as ErrSpillIO: %v", err)
	}
}
