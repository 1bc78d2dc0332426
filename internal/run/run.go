// Package run declares the configuration of one mining run, once. The public
// surface (kaleido.Config, merged with an Engine's shared knobs, or decoded
// from a service.JobSpec) maps onto an Env in exactly one place —
// kaleido.Config.env — and the same *Env is then handed down, by pointer, to
// the applications (internal/apps), the exploration engine (internal/explore)
// and the level builder (internal/storage). A new run input is therefore one
// field here plus one line in Config.env; nothing in between copies fields,
// but for one copy: an explorer given a MemoryBudget and no Tracker runs on
// a copy of its Env that carries a private one, since the budget governor
// reads tracked bytes.
//
// One job is one run over one Env, which is read-only once the run has
// started. The zero value is a valid run: all CPUs, everything in memory, the
// real filesystem, the eigenvalue isomorphism backend, no accounting.
package run

import (
	"runtime"

	"kaleido/internal/memtrack"
	"kaleido/internal/storage/vfs"
)

// Env is what one run needs from its caller.
type Env struct {
	// Threads is the worker count; 0 means one per CPU. Read it through
	// Workers, the one place that default is resolved.
	Threads int

	// MemoryBudget caps the resident bytes of the CSE (hybrid storage, §4.1).
	// Levels are built part by part in memory; when the tracked live bytes
	// of the budget scope (Tracker's SharedLive) reach the spill watermark
	// the budget governor migrates the parts still growing to SpillDir
	// mid-build, so a single level can end up half in memory and half on
	// disk. A budget implies tracking: with a nil Tracker the explorer
	// counts into a private one. 0 means no limit: every part stays raw in
	// memory and the run touches neither SpillDir nor the filesystem.
	MemoryBudget int64
	// SpillDir receives the spilled level parts, each run in a private
	// subdirectory. Required when MemoryBudget > 0.
	SpillDir string

	// FS is the filesystem the spill path goes through. nil means the real
	// one (vfs.OS); tests and fault campaigns inject a vfs.FaultFS here.
	FS vfs.FS

	// Tracker, when non-nil, is charged the run's resident bytes and spill
	// I/O. Under a budget shared by several runs it is the child of their
	// memtrack.Arbiter, so the governor reads the combined total.
	Tracker *memtrack.Tracker

	// Iso selects the isomorphism backend of pattern aggregation.
	Iso IsoAlgo

	// Spill, when non-nil, receives the run's storage accounting: the
	// explorer fills it when it closes.
	Spill *SpillInfo
}

// Workers returns the run's worker count: Threads, or one per CPU.
func (e *Env) Workers() int {
	if e.Threads > 0 {
		return e.Threads
	}
	return runtime.GOMAXPROCS(0)
}

// IsoAlgo selects the isomorphism backend of the pattern aggregation phase.
type IsoAlgo int

const (
	// IsoEigen is Kaleido's Algorithm 1 (the default).
	IsoEigen IsoAlgo = iota
	// IsoBliss is the bliss-like search-tree canonical labeler — the §6.3
	// baseline.
	IsoBliss
	// IsoEigenExact is Algorithm 1 with exact big-integer characteristic
	// polynomials (ablation).
	IsoEigenExact
)

// SpillInfo is the storage accounting of one run, cumulative over its
// expansions.
type SpillInfo struct {
	// SpilledLevels counts expansions that migrated at least one part to
	// disk; SpilledParts counts the migrated parts themselves.
	SpilledLevels, SpilledParts int
	// SpilledBytes is the logical size (raw word bytes) of the spilled
	// parts; SpilledBytesPhysical is what their codec blocks occupied on
	// disk.
	SpilledBytes, SpilledBytesPhysical int64
	// Levels is the final placement snapshot of the run's live CSE levels
	// (base level first), taken just before the explorer released them — the
	// per-level view a metrics endpoint can report after the run is gone.
	Levels []LevelStat
	// IsoCalls counts how often the run's pattern aggregation ran the
	// isomorphism backend — once per distinct sorted pattern per worker,
	// give or take memo evictions: where the hashing time goes (the
	// aggregator adds to it at every merge).
	IsoCalls uint64
}

// LevelStat describes the storage placement of one live CSE level.
type LevelStat struct {
	Len, Groups int
	// MemParts counts the memory-resident parts holding data: the parts the
	// level was built in, whether or not the run has a budget. The base level
	// is one raw part, so it reports 1 (0 when empty, like any empty part).
	MemParts      int
	DiskParts     int   // disk-resident parts
	ResidentBytes int64 // in-memory footprint (arrays + sparse indexes)
	DiskBytes     int64 // logical on-disk footprint (raw word size)
	// DiskBytesPhysical is the bytes the disk parts' codec blocks actually
	// occupy.
	DiskBytesPhysical int64
}
