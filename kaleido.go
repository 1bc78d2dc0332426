// Package kaleido is an out-of-core graph mining system for a single
// machine, reproducing "Kaleido: An Efficient Out-of-core Graph Mining
// System on A Single Machine" (Zhao et al., ICDE 2020).
//
// Kaleido explores the embeddings (subgraph instances) of a labeled input
// graph level by level, storing the intermediate data in a Compressed Sparse
// Embedding (CSE) structure that treats the k-embedding set as a sparse
// k-dimensional tensor. Storage is half-memory-half-disk at part granularity
// (§4.1): every level is built in memory part by part, and when the resident
// bytes cross the spill watermark a budget governor migrates the largest
// in-flight parts to disk mid-build — so a level slightly over budget keeps
// most of itself in RAM and pays disk I/O (with sliding-window prefetch)
// only for the spilled remainder. Pattern aggregation solves the
// graph-isomorphism problem for embeddings of fewer than 9 vertices with
// a characteristic-polynomial hash (Faddeev–LeVerrier over the label-weighted
// adjacency matrix) instead of a canonical-labeling search tree.
//
// A mining run's final — and largest — level can be consumed at the
// expansion frontier instead of stored (Miner.ExpandCount and
// Miner.ExpandVisit; §6.5 generalized), so counting and aggregating
// workloads write zero bytes for their terminal level. Four mining
// applications ship ready-made on this pipeline — frequent subgraph mining,
// motif counting, clique discovery and triangle counting — and the Miner
// type exposes the underlying exploration API (the paper's Listing 1) for
// custom workloads.
//
// Every run is cancellable: all blocking entry points take a
// context.Context, workers poll it between blocks of work, and a cancelled
// run returns ctx.Err() promptly — pending spill writes are discarded,
// in-flight ones drain, and Close reclaims every spilled file:
//
//	g, err := kaleido.LoadEdgeListFile("graph.txt")
//	n, err := g.Triangles(ctx, kaleido.Config{})
//	motifs, err := g.Motifs(ctx, 4, kaleido.Config{MemoryBudget: 8 << 30, SpillDir: "/tmp/kaleido"})
//
// Co-located runs multiplex through an Engine, which arbitrates one memory
// budget across all the runs it vends — the spill watermark fires on their
// combined resident bytes, so N concurrent runs together stay under one
// budget instead of each assuming it owns the machine:
//
//	eng := &kaleido.Engine{MemoryBudget: 8 << 30, SpillDir: "/tmp/kaleido"}
//	go func() { motifs, err = eng.Motifs(ctx, g1, 4, kaleido.Config{}) }()
//	go func() { cliques, err2 = eng.Cliques(ctx, g2, 5, kaleido.Config{}) }()
package kaleido

import (
	"context"
	"fmt"
	"io"
	"os"
	"slices"
	"time"

	"kaleido/internal/explore"
	"kaleido/internal/graph"
	"kaleido/internal/memtrack"
	"kaleido/internal/run"
	"kaleido/internal/storage"
	"kaleido/internal/storage/vfs"
)

// Typed spill-path errors. Any error a mining run returns because of its
// spill I/O wraps exactly one of these, so callers can dispatch with
// errors.Is regardless of the path, block, or retry detail in the message:
//
//   - ErrSpillIO: an I/O operation failed and exhausted its retry budget
//     (transient errors are retried with bounded exponential backoff first).
//   - ErrSpillCorrupt: spilled data failed its CRC32C checksum, was
//     truncated, or carried an unknown block version. Never retried — the
//     error message carries the file and block coordinates.
//   - ErrNoSpace: the spill device ran out of space (ENOSPC). Terminal: the
//     run stops spilling and fails cleanly; sibling runs on the same Engine
//     are unaffected.
var (
	ErrSpillIO      = storage.ErrSpillIO
	ErrSpillCorrupt = storage.ErrSpillCorrupt
	ErrNoSpace      = storage.ErrNoSpace
)

// Config tunes a mining run. The zero value runs fully in memory with one
// thread per CPU and the eigenvalue isomorphism backend.
type Config struct {
	// Threads is the worker count (0 = GOMAXPROCS).
	Threads int
	// Shards is ignored: a run is parallel inside itself (Threads workers
	// split every level), never split into seed-range sub-runs.
	//
	// Deprecated: in-process sharding was removed; the field stays for
	// source compatibility and will be removed.
	Shards int
	// MemoryBudget caps the resident bytes of intermediate embedding data
	// (§4.1 hybrid storage). Levels are built in memory part by part; when
	// the resident total crosses the spill watermark — 0.9·MemoryBudget; the
	// headroom above it absorbs allocation growth between spill decisions —
	// mid-build, the largest in-flight parts migrate to SpillDir, so a single
	// level can be half in memory and half on disk. A part is either raw in
	// memory or on disk; what reaches disk is always version-2 checksummed
	// codec blocks (delta+varint verts, frame-of-reference counts, a CRC32C
	// per block verified on every decode — typically 2-4× smaller than the
	// raw words). A part's placement is final once its level is built.
	// 0 keeps everything in memory.
	MemoryBudget int64
	// SpillDir receives spilled CSE level parts. Required when
	// MemoryBudget > 0.
	SpillDir string
	// Iso selects the isomorphism backend for pattern aggregation.
	Iso IsoAlgo
	// Stats, when non-nil, receives memory and I/O accounting.
	Stats *Stats
	// Faults, when non-nil, routes the run's spill I/O through a
	// deterministic fault-injecting filesystem — the robustness test
	// harness. Production runs leave it nil.
	Faults *FaultSpec
}

// FaultSpec configures deterministic spill-path fault injection: each
// probability is rolled per I/O operation from a PRNG seeded with Seed, so a
// given (workload, spec) pair replays the identical fault schedule. Injected
// read/write errors are transient (EIO) and exercise the retry path;
// BitFlipP corrupts one bit of a read and exercises the checksum path;
// WriteCapBytes makes the device report ENOSPC after that many bytes.
type FaultSpec struct {
	// Seed fixes the fault schedule (same seed, same faults).
	Seed int64
	// ReadErrorP / WriteErrorP are per-operation probabilities of a
	// transient EIO.
	ReadErrorP, WriteErrorP float64
	// ShortWriteP is the probability a write accepts only a prefix.
	ShortWriteP float64
	// BitFlipP is the probability a successful read comes back with one bit
	// flipped — detected by the block checksums as ErrSpillCorrupt.
	BitFlipP float64
	// LatencyP delays the operation by Latency with this probability.
	LatencyP float64
	Latency  time.Duration
	// WriteCapBytes, when > 0, fails every write past that many cumulative
	// bytes with ENOSPC (a full device).
	WriteCapBytes int64
}

// fs builds the vfs the spec describes (nil spec = nil, the real filesystem).
func (s *FaultSpec) fs() vfs.FS {
	if s == nil {
		return nil
	}
	return vfs.NewFaultFS(nil, vfs.Fault{
		Seed:        s.Seed,
		ReadErrP:    s.ReadErrorP,
		WriteErrP:   s.WriteErrorP,
		ShortWriteP: s.ShortWriteP,
		BitFlipP:    s.BitFlipP,
		LatencyP:    s.LatencyP,
		Latency:     s.Latency,
		WriteCap:    s.WriteCapBytes,
	})
}

// IsoAlgo selects the isomorphism backend.
type IsoAlgo int

const (
	// IsoEigen is the paper's Algorithm 1 (default): characteristic-
	// polynomial hashing, valid for patterns under 9 vertices.
	IsoEigen IsoAlgo = iota
	// IsoBliss is a bliss-like canonical-labeling search tree (the §6.3
	// baseline backend).
	IsoBliss
	// IsoEigenExact is Algorithm 1 with exact big-integer polynomial
	// coefficients (slower; for verification).
	IsoEigenExact
)

// Stats carries instrumentation out of a run.
type Stats struct {
	// PeakBytes is the peak tracked footprint of intermediate structures.
	PeakBytes int64
	// ReadBytes and WriteBytes count hybrid-storage I/O.
	ReadBytes, WriteBytes int64
	// SpilledLevels counts expansions that migrated at least one level part
	// to disk; SpilledParts counts the migrated parts themselves. Under the
	// per-part hybrid storage a level near the budget typically spills only
	// some of its parts, so SpilledParts/SpilledLevels measures how partial
	// the spilling was.
	SpilledLevels, SpilledParts int
	// PromotedParts is always 0: a stored level never changes after its
	// build, so no part goes back from disk to memory.
	//
	// Deprecated: parts are no longer promoted; the field stays for source
	// compatibility and will be removed.
	PromotedParts int
	// CompressedParts is always 0: a part is raw in memory or on disk.
	//
	// Deprecated: parts are no longer compressed in memory; the field stays
	// for source compatibility and will be removed.
	CompressedParts int
	// SpilledBytes is the logical size (raw word bytes) of the spilled
	// parts — exactly what spilling them uncompressed would have written;
	// SpilledBytesPhysical is what their codec blocks actually occupied on
	// disk, typically 2-4× smaller.
	SpilledBytes, SpilledBytesPhysical int64
	// IORetries counts transient spill I/O errors that were absorbed by the
	// retry/backoff policy instead of failing the run. Nonzero retries with
	// a successful result mean the storage layer rode out real (or injected)
	// faults.
	IORetries int64
	// Levels is the final placement snapshot of the run's live CSE levels
	// (base level first), captured just before the run released them — the
	// per-level residency view that outlives the run, for metrics endpoints
	// and post-mortems. Filled for application runs and, at Close, for custom
	// Miners.
	Levels []LevelStat
}

// env validates the public configuration and maps it onto the run's one
// internal configuration — the only place a Config field is read on its way
// into the engine: a new run input is one field on run.Env plus one line
// here. tracker is the run's byte and I/O accounting (nil = untracked): a
// private one for a standalone run, the child of a budget arbiter when the
// budget is shared. Stats stays behind: runJob and Miner.Close fill it from
// the run's accounting.
func (c Config) env(tracker *memtrack.Tracker) (*run.Env, error) {
	switch {
	case c.MemoryBudget > 0 && c.SpillDir == "":
		return nil, fmt.Errorf("kaleido: MemoryBudget set but SpillDir empty")
	case c.Iso < IsoEigen || c.Iso > IsoEigenExact:
		return nil, fmt.Errorf("kaleido: unknown Iso backend %d", c.Iso)
	}
	return &run.Env{
		Threads:      c.Threads,
		MemoryBudget: c.MemoryBudget,
		SpillDir:     c.SpillDir,
		FS:           c.Faults.fs(),
		Iso:          run.IsoAlgo(c.Iso),
		Tracker:      tracker,
		Spill:        &run.SpillInfo{},
	}, nil
}

// statsOf is the one translation from a run's internal accounting to the
// public Stats: what the run's tracker counted and what its explorer handed
// to Env.Spill when it closed.
func statsOf(env *run.Env) Stats {
	sp := env.Spill
	s := Stats{
		SpilledLevels:        sp.SpilledLevels,
		SpilledParts:         sp.SpilledParts,
		SpilledBytes:         sp.SpilledBytes,
		SpilledBytesPhysical: sp.SpilledBytesPhysical,
		Levels:               publicLevelStats(sp.Levels),
	}
	if t := env.Tracker; t != nil {
		s.PeakBytes = t.Peak()
		s.ReadBytes, s.WriteBytes = t.IOTotals()
		s.IORetries = t.IORetries()
	}
	return s
}

// ctxOrBackground normalizes a nil context so internal layers can poll it
// unconditionally.
func ctxOrBackground(ctx context.Context) context.Context {
	if ctx == nil {
		return context.Background()
	}
	return ctx
}

// Graph is an immutable labeled undirected graph.
//
// Graphs built through this package are degree-order relabeled internally:
// high-degree vertices get dense low internal ids, so the hub bitset rows
// and the leaf markers' stamps and probes touch a compact low-id prefix of
// their arrays (fewer cache lines on power-law graphs).
// The permutation is carried on the graph and every public API accepts and
// returns original (load-time) vertex ids — Label, HasEdge, Neighbors,
// Miner embeddings and filters all translate transparently.
type Graph struct {
	g *graph.Graph
}

// wrapGraph relabels a freshly built internal graph and wraps it. Every
// public constructor funnels through here so the id-translation contract
// holds uniformly.
func wrapGraph(g *graph.Graph) (*Graph, error) {
	rg, err := graph.Relabel(g)
	if err != nil {
		return nil, err
	}
	return &Graph{g: rg}, nil
}

// GraphBuilder accumulates edges and labels.
type GraphBuilder struct {
	b *graph.Builder
}

// NewGraphBuilder starts a graph with n vertices (ids 0..n-1), all labeled 0.
func NewGraphBuilder(n int) *GraphBuilder {
	return &GraphBuilder{b: graph.NewBuilder(n)}
}

// AddEdge records the undirected edge {u, v}; duplicates and self loops are
// dropped.
func (gb *GraphBuilder) AddEdge(u, v uint32) { gb.b.AddEdge(u, v) }

// SetLabel assigns a vertex label.
func (gb *GraphBuilder) SetLabel(v uint32, label uint16) { gb.b.SetLabel(v, label) }

// Build finalizes the graph. Vertex ids keep meaning the builder's ids at
// the API surface; internally the graph is degree-order relabeled.
func (gb *GraphBuilder) Build() (*Graph, error) {
	g, err := gb.b.Build()
	if err != nil {
		return nil, err
	}
	return wrapGraph(g)
}

// LoadEdgeList parses a whitespace-separated edge list ("u v" lines, "#"
// comments, optional "v label=L" lines).
func LoadEdgeList(r io.Reader) (*Graph, error) {
	g, err := graph.ReadEdgeList(r)
	if err != nil {
		return nil, err
	}
	return wrapGraph(g)
}

// LoadEdgeListFile reads an edge-list file.
func LoadEdgeListFile(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadEdgeList(f)
}

// N returns the vertex count.
func (g *Graph) N() int { return g.g.N() }

// M returns the undirected edge count.
func (g *Graph) M() int { return g.g.M() }

// NumLabels returns the number of distinct vertex labels.
func (g *Graph) NumLabels() int { return g.g.NumLabels() }

// AvgDegree returns 2M/N.
func (g *Graph) AvgDegree() float64 { return g.g.AvgDegree() }

// Relabeled reports whether the graph's internal ids were degree-order
// relabeled at build time. The public API accepts and returns original ids
// either way; this only signals that translation is happening underneath.
func (g *Graph) Relabeled() bool { return g.g.Relabeled() }

// Label returns the label of vertex v (original id).
func (g *Graph) Label(v uint32) uint16 { return g.g.Label(g.g.NewID(v)) }

// HasEdge reports whether {u, v} is an edge (original ids).
func (g *Graph) HasEdge(u, v uint32) bool { return g.g.HasEdge(g.g.NewID(u), g.g.NewID(v)) }

// Neighbors returns the sorted neighbors of v under original ids. On a
// relabeled graph this is a freshly translated copy; otherwise it aliases
// internal storage and must not be mutated.
func (g *Graph) Neighbors(v uint32) []uint32 {
	nb := g.g.Neighbors(g.g.NewID(v))
	if !g.g.Relabeled() {
		return nb
	}
	out := make([]uint32, len(nb))
	for i, u := range nb {
		out[i] = g.g.OrigID(u)
	}
	slices.Sort(out)
	return out
}

// modeOf converts the public mode.
func modeOf(m Mode) explore.Mode {
	if m == EdgeInduced {
		return explore.EdgeInduced
	}
	return explore.VertexInduced
}
