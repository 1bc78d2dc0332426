// Command kaleido runs one mining application over an input graph.
//
// Usage:
//
//	kaleido -app tc -dataset patent
//	kaleido -app motif -k 4 -graph edges.txt
//	kaleido -app fsm -k 3 -support 300 -dataset mico -budget 64MiB -spill /tmp/k
//
// Graphs come either from a named synthetic dataset (-dataset citeseer|mico|
// patent|youtube) or from an edge-list file (-graph), with lines "u v" and
// optional "v label=L".
//
// The flags build a service.JobSpec — the same job encoding the kaleidod
// daemon accepts over HTTP — and both run paths execute that one spec, so a
// CLI invocation and a daemon submission of the same job cannot drift:
//
//	kaleido -app motif -k 4 -dataset mico -print-spec   # emit the JSON spec
//	kaleido -app motif -k 4 -dataset mico -serve        # run it through an
//	        in-process kaleidod HTTP server instead of directly (smoke parity)
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"os/signal"
	"time"

	"kaleido"
	"kaleido/internal/service"
)

func main() {
	app := flag.String("app", "tc", "application: tc | clique | motif | fsm")
	k := flag.Int("k", 3, "embedding size (clique/motif/fsm)")
	support := flag.Uint64("support", 100, "MNI support threshold (fsm)")
	dsName := flag.String("dataset", "", "named dataset (citeseer, mico, patent, youtube)")
	graphPath := flag.String("graph", "", "edge-list file")
	threads := flag.Int("threads", 0, "worker threads (0 = all CPUs)")
	budget := flag.String("budget", "", "memory budget for intermediate data (e.g. 512MiB); empty = in-memory")
	spill := flag.String("spill", os.TempDir(), "spill directory for hybrid storage")
	iso := flag.String("iso", "eigen", "isomorphism backend: eigen | bliss | exact")
	minCount := flag.Uint64("min-count", 0, "drop motif/fsm patterns below this count")
	topK := flag.Int("top-k", 0, "keep only the first K patterns after sorting (0 = all)")
	printSpec := flag.Bool("print-spec", false, "print the job as a kaleidod JobSpec (JSON) and exit")
	serve := flag.Bool("serve", false, "run the job through an in-process kaleidod HTTP server (parity check)")
	flag.Parse()

	spec := service.JobSpec{
		App:       *app,
		K:         *k,
		Support:   *support,
		Dataset:   *dsName,
		GraphPath: *graphPath,
		Threads:   *threads,
		Budget:    *budget,
		Iso:       *iso,
		MinCount:  *minCount,
		TopK:      *topK,
	}
	if *budget != "" {
		spec.SpillDir = *spill
	}

	if *printSpec {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := spec.Validate(); err != nil {
			fatal(err)
		}
		enc.Encode(&spec)
		return
	}
	if err := spec.Validate(); err != nil {
		fatal(err)
	}

	// Ctrl-C cancels the run: workers notice within one block of work, the
	// partial level and its spill files are discarded, and the process exits
	// cleanly instead of leaving scratch data behind.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	start := time.Now()
	var res *service.JobResult
	var err error
	if *serve {
		res, err = runServed(ctx, &spec)
	} else {
		res, err = runDirect(ctx, &spec)
	}
	if err != nil {
		fatal(err)
	}
	printResult(&spec, res)
	stats := res.Stats
	fmt.Printf("elapsed: %.2fs  peak intermediate: %.1f MB  io: %.1f MB read / %.1f MB written\n",
		time.Since(start).Seconds(),
		float64(stats.PeakBytes)/(1<<20),
		float64(stats.ReadBytes)/(1<<20),
		float64(stats.WriteBytes)/(1<<20))
	if stats.SpilledParts > 0 {
		fmt.Printf("residency: %d parts spilled to disk\n", stats.SpilledParts)
	}
}

// runDirect executes the spec on a private engine carrying the spec's own
// budget — the classic one-shot CLI path.
func runDirect(ctx context.Context, spec *service.JobSpec) (*service.JobResult, error) {
	cfg, err := spec.Config()
	if err != nil {
		return nil, err
	}
	g, err := loadGraph(spec)
	if err != nil {
		return nil, err
	}
	eng := &kaleido.Engine{
		MemoryBudget: cfg.MemoryBudget,
		SpillDir:     cfg.SpillDir,
	}
	var stats kaleido.Stats
	return service.Execute(ctx, eng, g, spec, &stats)
}

// runServed executes the spec through an in-process kaleidod HTTP server —
// the same submit/poll/result round trip a daemon client makes, over an
// engine configured like runDirect's. It exists as a smoke-parity check:
// both paths execute the identical JobSpec, so their results must match.
func runServed(ctx context.Context, spec *service.JobSpec) (*service.JobResult, error) {
	cfg, err := spec.Config()
	if err != nil {
		return nil, err
	}
	eng := &kaleido.Engine{
		MemoryBudget: cfg.MemoryBudget,
		SpillDir:     cfg.SpillDir,
	}
	srv := service.NewServer(eng, service.DefaultCacheDir(), 1)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	body, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	var job service.Job
	if err := decodeJSON(resp, http.StatusAccepted, &job); err != nil {
		return nil, err
	}
	fmt.Printf("served: job %s submitted\n", job.ID)
	for {
		select {
		case <-ctx.Done():
			if resp, err := http.Post(ts.URL+"/jobs/"+job.ID+"/cancel", "application/json", nil); err == nil {
				resp.Body.Close()
			}
			return nil, ctx.Err()
		case <-time.After(50 * time.Millisecond):
		}
		resp, err := http.Get(ts.URL + "/jobs/" + job.ID)
		if err != nil {
			return nil, err
		}
		if err := decodeJSON(resp, http.StatusOK, &job); err != nil {
			return nil, err
		}
		switch job.State {
		case service.StateDone:
			resp, err := http.Get(ts.URL + "/jobs/" + job.ID + "/result")
			if err != nil {
				return nil, err
			}
			var res service.JobResult
			if err := decodeJSON(resp, http.StatusOK, &res); err != nil {
				return nil, err
			}
			return &res, nil
		case service.StateFailed, service.StateCanceled:
			return nil, fmt.Errorf("kaleido: served job %s: %s", job.State, job.Error)
		}
	}
}

func decodeJSON(resp *http.Response, want int, v any) error {
	defer resp.Body.Close()
	if resp.StatusCode != want {
		var e struct {
			Error string `json:"error"`
		}
		json.NewDecoder(resp.Body).Decode(&e)
		return fmt.Errorf("kaleido: HTTP %d: %s", resp.StatusCode, e.Error)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func printResult(spec *service.JobSpec, res *service.JobResult) {
	switch spec.App {
	case "tc":
		fmt.Printf("triangles: %d\n", res.Count)
	case "clique":
		fmt.Printf("%d-cliques: %d\n", spec.K, res.Count)
	case "motif":
		fmt.Printf("%d-motifs: %d shapes\n", spec.K, res.TotalPatterns)
		for _, pc := range res.Patterns {
			fmt.Printf("  %-40s %12d\n", pc.Pattern, pc.Count)
		}
	case "fsm":
		fmt.Printf("%d-FSM (support %d): %d frequent patterns\n", spec.K, spec.Support, res.TotalPatterns)
		for _, pc := range res.Patterns {
			fmt.Printf("  %-40s count=%-10d support>=%d\n", pc.Pattern, pc.Count, spec.Support)
		}
	}
}

func loadGraph(spec *service.JobSpec) (*kaleido.Graph, error) {
	g, err := spec.LoadGraph(service.DefaultCacheDir())
	if err != nil {
		return nil, err
	}
	fmt.Printf("graph: %d vertices, %d edges, %d labels, avg degree %.1f\n",
		g.N(), g.M(), g.NumLabels(), g.AvgDegree())
	return g, nil
}

func fatal(err error) {
	if errors.Is(err, context.Canceled) {
		fmt.Fprintln(os.Stderr, "kaleido: interrupted")
		os.Exit(130)
	}
	fmt.Fprintln(os.Stderr, "kaleido:", err)
	os.Exit(1)
}
