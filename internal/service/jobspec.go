package service

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"kaleido"
	"kaleido/internal/pattern"
)

// JobSpec is the wire description of one mining job — the single encoding
// shared by the kaleidod HTTP API and the kaleido CLI flags, so a flag added
// to one cannot silently drift from the other. The zero value of every field
// means "default".
type JobSpec struct {
	// App selects the application: "tc", "clique", "motif" or "fsm".
	App string `json:"app"`
	// K is the embedding size of clique/motif/fsm jobs (ignored by tc).
	K int `json:"k,omitempty"`
	// Support is the FSM MNI support threshold.
	Support uint64 `json:"support,omitempty"`
	// Dataset names a built-in synthetic dataset (citeseer, mico, patent,
	// youtube); GraphPath points at an edge-list file. Exactly one must be
	// set.
	Dataset   string `json:"dataset,omitempty"`
	GraphPath string `json:"graph,omitempty"`
	// Threads is the worker count (0 = all CPUs).
	Threads int `json:"threads,omitempty"`
	// Budget is a human byte size ("512MiB") capping resident intermediate
	// data. Only standalone (CLI) execution honors it — jobs run through an
	// Engine charge the engine's shared budget instead.
	Budget string `json:"budget,omitempty"`
	// SpillDir receives spilled level parts of a standalone budgeted run
	// (daemon jobs spill into the engine's directory).
	SpillDir string `json:"spill_dir,omitempty"`
	// Iso selects the isomorphism backend: "eigen" (default), "bliss" or
	// "exact".
	Iso string `json:"iso,omitempty"`

	// Priority orders the admission queue (higher first); QueueDeadlineMS
	// bounds the queue wait (0 = wait indefinitely). ProjectedBytes overrides
	// the engine's own resident-bytes projection (0 = project from the
	// graph). All three are daemon-only: standalone runs start immediately.
	Priority        int   `json:"priority,omitempty"`
	QueueDeadlineMS int64 `json:"queue_deadline_ms,omitempty"`
	ProjectedBytes  int64 `json:"projected_bytes,omitempty"`

	// Result filters for pattern-producing apps (motif, fsm): MinCount drops
	// patterns below that count, TopK keeps only the first K after the
	// deterministic sort. 0 disables either.
	MinCount uint64 `json:"min_count,omitempty"`
	TopK     int    `json:"top_k,omitempty"`
}

// Validate checks the spec for early, friendly errors — the same checks for
// an HTTP submission and a CLI invocation.
func (s *JobSpec) Validate() error {
	if _, err := s.AppID(); err != nil {
		return err
	}
	switch s.App {
	case "clique", "motif", "fsm":
		if s.K < 2 {
			return fmt.Errorf("service: app %q needs k >= 2 (got %d)", s.App, s.K)
		}
	}
	switch s.App {
	case "motif", "fsm":
		// Their patterns hold at most pattern.MaxK vertices: refuse a larger k
		// here, not after the graph is loaded and the job admitted.
		if s.K > pattern.MaxK {
			return fmt.Errorf("service: app %q needs k <= %d (got %d)", s.App, pattern.MaxK, s.K)
		}
	}
	if s.Dataset != "" && s.GraphPath != "" {
		return fmt.Errorf("service: use either dataset or graph, not both")
	}
	if s.Dataset == "" && s.GraphPath == "" {
		return fmt.Errorf("service: need dataset or graph (datasets: %s)",
			strings.Join(kaleido.DatasetNames(), ", "))
	}
	if s.Budget != "" {
		if _, err := ParseBytes(s.Budget); err != nil {
			return err
		}
	}
	if _, err := s.isoAlgo(); err != nil {
		return err
	}
	if s.Threads < 0 {
		return fmt.Errorf("service: negative threads %d", s.Threads)
	}
	if s.ProjectedBytes < 0 {
		return fmt.Errorf("service: negative projected_bytes %d", s.ProjectedBytes)
	}
	if s.QueueDeadlineMS < 0 {
		return fmt.Errorf("service: negative queue_deadline_ms %d", s.QueueDeadlineMS)
	}
	if s.TopK < 0 {
		return fmt.Errorf("service: negative top_k %d", s.TopK)
	}
	return nil
}

// AppID maps the wire app name to the engine's App id.
func (s *JobSpec) AppID() (kaleido.App, error) {
	switch s.App {
	case "tc":
		return kaleido.AppTriangles, nil
	case "clique":
		return kaleido.AppCliques, nil
	case "motif":
		return kaleido.AppMotifs, nil
	case "fsm":
		return kaleido.AppFSM, nil
	}
	return 0, fmt.Errorf("service: unknown app %q (have tc, clique, motif, fsm)", s.App)
}

func (s *JobSpec) isoAlgo() (kaleido.IsoAlgo, error) {
	switch s.Iso {
	case "", "eigen":
		return kaleido.IsoEigen, nil
	case "bliss":
		return kaleido.IsoBliss, nil
	case "exact":
		return kaleido.IsoEigenExact, nil
	}
	return 0, fmt.Errorf("service: unknown iso backend %q (have eigen, bliss, exact)", s.Iso)
}

// Config translates the spec into a run Config — the only wire → Config
// mapping. The budget fields are filled from Budget/SpillDir;
// Engine-dispatched runs override them with the engine's shared budget, so
// the translation is safe for both paths.
func (s *JobSpec) Config() (kaleido.Config, error) {
	iso, err := s.isoAlgo()
	if err != nil {
		return kaleido.Config{}, err
	}
	cfg := kaleido.Config{
		Threads: s.Threads,
		Iso:     iso,
	}
	if s.Budget != "" {
		b, err := ParseBytes(s.Budget)
		if err != nil {
			return kaleido.Config{}, err
		}
		cfg.MemoryBudget = b
		cfg.SpillDir = s.SpillDir
		if cfg.SpillDir == "" {
			cfg.SpillDir = os.TempDir()
		}
	}
	return cfg, nil
}

// GraphKey is the dataset-cache key of the spec's input graph: the same
// source string always yields the same loaded graph, so jobs naming the same
// dataset or file share one in-memory copy.
func (s *JobSpec) GraphKey() string {
	if s.Dataset != "" {
		return "dataset:" + s.Dataset
	}
	return "file:" + s.GraphPath
}

// DefaultCacheDir is the on-disk dataset cache the kaleido CLI and the
// kaleidod daemon share by default: kaleido-datasets under the user's cache
// directory, or "" (regenerate every load) when there is none.
func DefaultCacheDir() string {
	cache, err := os.UserCacheDir()
	if err != nil {
		return ""
	}
	return filepath.Join(cache, "kaleido-datasets")
}

// LoadGraph loads the spec's input graph. cacheDir is the on-disk cache for
// generated datasets ("" regenerates every call); it is unrelated to the
// in-memory GraphCache, which should wrap this call via GraphKey.
func (s *JobSpec) LoadGraph(cacheDir string) (*kaleido.Graph, error) {
	if s.Dataset != "" {
		return kaleido.Dataset(s.Dataset, cacheDir)
	}
	return kaleido.LoadEdgeListFile(s.GraphPath)
}

// Deadline resolves QueueDeadlineMS against now (zero time = no deadline).
func (s *JobSpec) Deadline(now time.Time) time.Time {
	if s.QueueDeadlineMS <= 0 {
		return time.Time{}
	}
	return now.Add(time.Duration(s.QueueDeadlineMS) * time.Millisecond)
}

// ParseBytes parses a human byte size: a plain integer, or one with a KB/MB/
// GB (decimal) or KiB/MiB/GiB (binary) suffix, case-insensitive. A negative
// size, or one whose bytes overflow int64, is an error: a budget ≤ 0 means
// "unbudgeted", so neither may pass for one.
func ParseBytes(s string) (int64, error) {
	mult := int64(1)
	upper := strings.ToUpper(strings.TrimSpace(s))
	suffixes := []struct {
		suf string
		m   int64
	}{
		{"KIB", 1 << 10}, {"MIB", 1 << 20}, {"GIB", 1 << 30},
		{"KB", 1000}, {"MB", 1000 * 1000}, {"GB", 1000 * 1000 * 1000},
	}
	for _, sm := range suffixes {
		if strings.HasSuffix(upper, sm.suf) {
			mult = sm.m
			upper = strings.TrimSuffix(upper, sm.suf)
			break
		}
	}
	v, err := strconv.ParseInt(strings.TrimSpace(upper), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("service: bad byte size %q: %w", s, err)
	}
	if v < 0 {
		return 0, fmt.Errorf("service: negative byte size %q", s)
	}
	if v > math.MaxInt64/mult {
		return 0, fmt.Errorf("service: byte size %q overflows int64", s)
	}
	return v * mult, nil
}

// PatternResult is one pattern row of a motif/FSM result, rendered for the
// wire.
type PatternResult struct {
	Pattern string `json:"pattern"`
	Count   uint64 `json:"count"`
	Support uint64 `json:"support,omitempty"`
}

// JobResult is a finished job's output.
type JobResult struct {
	// Count is the scalar result: triangles, cliques, total motif
	// embeddings, or — for FSM — the number of frequent patterns found
	// (TotalPatterns; the embeddings visited are not on the wire).
	Count uint64 `json:"count"`
	// Patterns holds the (filtered) pattern aggregates of motif/FSM jobs.
	Patterns []PatternResult `json:"patterns,omitempty"`
	// TotalPatterns is the pattern count before MinCount/TopK filtering.
	TotalPatterns int `json:"total_patterns,omitempty"`
	// Stats is the run's memory and I/O accounting.
	Stats kaleido.Stats `json:"stats"`
}

// Execute runs the spec's job on eng over g, filling stats (when non-nil; it
// is wired into the run Config) as well as the result's Stats. It is the
// single dispatch both the daemon's job runner and the CLI's -serve parity
// path use, so a daemon job and a direct Engine call of the same spec produce
// identical results: the spec becomes a kaleido.Job and takes the engine's
// one run path.
func Execute(ctx context.Context, eng *kaleido.Engine, g *kaleido.Graph, spec *JobSpec, stats *kaleido.Stats) (*JobResult, error) {
	app, err := spec.AppID()
	if err != nil {
		return nil, err
	}
	cfg, err := spec.Config()
	if err != nil {
		return nil, err
	}
	cfg.Stats = stats
	out, err := eng.Run(ctx, kaleido.Job{Graph: g, App: app, K: spec.K, Support: spec.Support, Config: cfg})
	if err != nil {
		return nil, err
	}
	res := &JobResult{
		Count:         out.Count,
		Patterns:      filterPatterns(out.Patterns, spec.MinCount, spec.TopK),
		TotalPatterns: len(out.Patterns),
		Stats:         out.Stats,
	}
	if app == kaleido.AppFSM {
		res.Count = uint64(len(out.Patterns))
	}
	return res, nil
}

// filterPatterns applies the spec's result filters to the deterministically
// sorted pattern list: MinCount first, then TopK.
func filterPatterns(pats []kaleido.PatternCount, minCount uint64, topK int) []PatternResult {
	out := make([]PatternResult, 0, len(pats))
	for _, pc := range pats {
		if pc.Count < minCount {
			continue
		}
		out = append(out, PatternResult{
			Pattern: pc.Pattern.String(),
			Count:   pc.Count,
			Support: pc.Support,
		})
		if topK > 0 && len(out) == topK {
			break
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}
