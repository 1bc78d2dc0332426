package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/big"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kaleido"
)

func TestParseBytes(t *testing.T) {
	cases := []struct {
		in   string
		want int64
	}{
		{"0", 0}, {"123", 123}, {"1KiB", 1024}, {"2MiB", 2 << 20},
		{"1GiB", 1 << 30}, {"1kb", 1000}, {"3MB", 3000000}, {"2GB", 2000000000},
		{" 64MiB ", 64 << 20}, {"-0", 0},
		{"9223372036854775807", math.MaxInt64}, {"8589934591GiB", math.MaxInt64 &^ (1<<30 - 1)},
	}
	for _, c := range cases {
		got, err := ParseBytes(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParseBytes(%q) = %d, %v; want %d", c.in, got, err, c.want)
		}
	}
	// A negative or overflowing size would read as "unbudgeted" (≤ 0), or
	// wrap to some other budget, if it were accepted.
	for _, bad := range []string{"", "MiB", "12XB", "1.5GiB", "-1", "-1MiB",
		"17179869184GiB", "9000000000GiB", "8589934592GiB", "9223372036854775808"} {
		if _, err := ParseBytes(bad); err == nil {
			t.Errorf("ParseBytes(%q) accepted", bad)
		}
	}
}

// FuzzParseBytes checks every size ParseBytes accepts against exact
// arithmetic: the value is ≥ 0 and equals the digits times the suffix's
// multiplier, computed with math/big, so no accepted size has wrapped.
func FuzzParseBytes(f *testing.F) {
	for _, s := range []string{"0", "123", "1KiB", "2mib", "3GB", " 64MiB ", "-1MiB",
		"17179869184GiB", "9000000000GiB", "8589934591GiB", "9223372036854775807", "+7kb"} {
		f.Add(s)
	}
	mults := []struct {
		suf string
		m   int64
	}{
		{"KIB", 1 << 10}, {"MIB", 1 << 20}, {"GIB", 1 << 30},
		{"KB", 1000}, {"MB", 1000 * 1000}, {"GB", 1000 * 1000 * 1000},
	}
	f.Fuzz(func(t *testing.T, s string) {
		got, err := ParseBytes(s)
		if err != nil {
			return
		}
		if got < 0 {
			t.Fatalf("ParseBytes(%q) = %d < 0", s, got)
		}
		digits, mult := strings.ToUpper(strings.TrimSpace(s)), int64(1)
		for _, sm := range mults {
			if d, ok := strings.CutSuffix(digits, sm.suf); ok {
				digits, mult = d, sm.m
				break
			}
		}
		want, ok := new(big.Int).SetString(strings.TrimSpace(digits), 10)
		if !ok {
			t.Fatalf("ParseBytes(%q) = %d, but %q is not a decimal integer", s, got, digits)
		}
		want.Mul(want, big.NewInt(mult))
		if want.Cmp(big.NewInt(got)) != 0 {
			t.Fatalf("ParseBytes(%q) = %d, want %v", s, got, want)
		}
	})
}

func TestJobSpecValidate(t *testing.T) {
	for _, good := range []JobSpec{
		{App: "motif", K: 4, Dataset: "mico"},
		{App: "motif", K: 8, Dataset: "mico"}, // the largest pattern
		{App: "fsm", K: 8, Dataset: "mico"},
	} {
		if err := good.Validate(); err != nil {
			t.Fatalf("valid spec %+v rejected: %v", good, err)
		}
	}
	bad := []JobSpec{
		{App: "motif", K: 9, Dataset: "mico"}, // k past the pattern size
		{App: "fsm", K: 9, Dataset: "mico"},   // k past the pattern size
		{App: "nope", Dataset: "mico"},
		{App: "tc"},                                       // no graph source
		{App: "tc", Dataset: "mico", GraphPath: "x"},      // both sources
		{App: "clique", K: 1, Dataset: "mico"},            // k too small
		{App: "tc", Dataset: "mico", Budget: "12XB"},      // bad budget
		{App: "tc", Dataset: "mico", Iso: "magic"},        // bad iso
		{App: "tc", Dataset: "mico", QueueDeadlineMS: -5}, // negative deadline
		{App: "motif", K: 3, Dataset: "mico", TopK: -1},   // negative top-k
		{App: "tc", Dataset: "mico", Threads: -1},         // negative threads
		{App: "tc", Dataset: "mico", ProjectedBytes: -1},  // negative projection
	}
	for i, spec := range bad {
		if err := spec.Validate(); err == nil {
			t.Errorf("bad spec %d accepted: %+v", i, spec)
		}
	}
}

// TestJobSpecRoundTrip checks the wire encoding stays minimal and stable:
// defaulted knobs are omitted, and decode(encode(spec)) is the identity.
func TestJobSpecRoundTrip(t *testing.T) {
	spec := JobSpec{App: "fsm", K: 3, Support: 7, Dataset: "mico", TopK: 5}
	b, err := json.Marshal(&spec)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(b, []byte("threads")) || bytes.Contains(b, []byte("iso")) {
		t.Fatalf("defaulted knobs leaked into the encoding: %s", b)
	}
	var back JobSpec
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back != spec {
		t.Fatalf("round trip mangled the spec: %+v", back)
	}
}

func TestGraphCache(t *testing.T) {
	var loads atomic.Int64
	load := func() (*kaleido.Graph, error) {
		loads.Add(1)
		time.Sleep(10 * time.Millisecond) // widen the coalescing window
		return kaleido.Synthetic(50, 100, 2, 1)
	}

	c := NewGraphCache(1)
	var wg sync.WaitGroup
	var releases [4]func()
	var graphs [4]*kaleido.Graph
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			g, rel, err := c.Acquire("k1", load)
			if err != nil {
				t.Errorf("Acquire: %v", err)
				return
			}
			graphs[i], releases[i] = g, rel
		}(i)
	}
	wg.Wait()
	if n := loads.Load(); n != 1 {
		t.Fatalf("4 concurrent Acquires loaded %d times, want 1", n)
	}
	for i := 1; i < 4; i++ {
		if graphs[i] != graphs[0] {
			t.Fatal("acquirers got different graph instances")
		}
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits != 3 || st.Entries != 1 || st.Pinned != 1 {
		t.Fatalf("stats after coalesced load: %+v", st)
	}
	for _, rel := range releases {
		rel()
	}
	// limit 1: the single idle entry stays resident and re-acquiring hits.
	if _, rel, err := c.Acquire("k1", load); err != nil || loads.Load() != 1 {
		t.Fatalf("idle entry evicted under limit: loads=%d err=%v", loads.Load(), err)
	} else {
		rel()
	}
	// A second key pushes the cache past its limit once both go idle: the
	// LRU entry (k1) evicts.
	_, rel2, err := c.Acquire("k2", load)
	if err != nil {
		t.Fatal(err)
	}
	rel2()
	st = c.Stats()
	if st.Entries != 1 || st.Evictions != 1 {
		t.Fatalf("stats after LRU eviction: %+v", st)
	}
	if _, rel, err := c.Acquire("k1", load); err != nil {
		t.Fatal(err)
	} else {
		if loads.Load() != 3 {
			t.Fatalf("evicted key reloaded %d times total, want 3", loads.Load())
		}
		rel()
	}
}

func TestGraphCacheLoadFailure(t *testing.T) {
	c := NewGraphCache(1)
	boom := errors.New("boom")
	if _, _, err := c.Acquire("k", func() (*kaleido.Graph, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("failed load returned %v", err)
	}
	if st := c.Stats(); st.Entries != 0 {
		t.Fatalf("failed load left an entry: %+v", st)
	}
	// The failure is not cached: the next Acquire retries and succeeds.
	g, rel, err := c.Acquire("k", func() (*kaleido.Graph, error) { return kaleido.Synthetic(10, 20, 1, 1) })
	if err != nil || g == nil {
		t.Fatalf("retry after failed load: %v", err)
	}
	rel()
}

// writeGraphFile dumps a small synthetic labeled graph as an edge-list file
// and returns its path.
func writeGraphFile(t *testing.T) string {
	t.Helper()
	g, err := kaleido.Synthetic(250, 1000, 4, 11)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for v := 0; v < g.N(); v++ {
		fmt.Fprintf(&buf, "%d label=%d\n", v, g.Label(uint32(v)))
	}
	for v := 0; v < g.N(); v++ {
		for _, u := range g.Neighbors(uint32(v)) {
			if u > uint32(v) {
				fmt.Fprintf(&buf, "%d %d\n", v, u)
			}
		}
	}
	path := filepath.Join(t.TempDir(), "graph.txt")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func postJob(t *testing.T, url string, spec JobSpec) Job {
	t.Helper()
	body, _ := json.Marshal(&spec)
	resp, err := http.Post(url+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	var job Job
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		t.Fatal(err)
	}
	return job
}

func getJob(t *testing.T, url, id string) Job {
	t.Helper()
	resp, err := http.Get(url + "/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var job Job
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		t.Fatal(err)
	}
	return job
}

func waitJob(t *testing.T, url, id string) Job {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		job := getJob(t, url, id)
		switch job.State {
		case StateDone, StateFailed, StateCanceled:
			return job
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", id, job.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func spillFiles(t *testing.T, dir string) []string {
	t.Helper()
	var out []string
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if !info.IsDir() {
			out = append(out, path)
		}
		return nil
	})
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	return out
}

// TestServiceE2E drives the whole daemon surface over HTTP: N jobs submitted
// against a budget sized for one, which must queue through admission, run
// serially, match a direct Engine run's results exactly, stay under the
// shared budget, and leave clean metrics and an empty spill dir behind.
func TestServiceE2E(t *testing.T) {
	path := writeGraphFile(t)
	spec := JobSpec{App: "motif", K: 4, GraphPath: path, Threads: 2}

	// Direct reference run: an unbudgeted engine, the same spec.
	g, err := kaleido.LoadEdgeListFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var refStats kaleido.Stats
	ref, err := Execute(context.Background(), &kaleido.Engine{}, g, &spec, &refStats)
	if err != nil {
		t.Fatal(err)
	}
	budget := refStats.PeakBytes

	spill := t.TempDir()
	eng := &kaleido.Engine{MemoryBudget: budget, SpillDir: spill, Threads: 2}
	srv := NewServer(eng, "", 2)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Health first.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", resp.StatusCode, err)
	}
	resp.Body.Close()

	// Submit 3 jobs whose projections each claim the whole budget, so
	// admission must serialize them.
	jobSpec := spec
	jobSpec.ProjectedBytes = budget
	const jobs = 3
	ids := make([]string, jobs)
	for i := range ids {
		ids[i] = postJob(t, ts.URL, jobSpec).ID
	}
	finished := make([]Job, jobs)
	for i, id := range ids {
		finished[i] = waitJob(t, ts.URL, id)
	}

	for _, job := range finished {
		if job.State != StateDone {
			t.Fatalf("job %s: %s (%s)", job.ID, job.State, job.Error)
		}
		if job.ProjectedBytes != budget {
			t.Fatalf("job %s admitted under projection %d, want %d", job.ID, job.ProjectedBytes, budget)
		}
		// Result parity with the direct run.
		resp, err := http.Get(ts.URL + "/jobs/" + job.ID + "/result")
		if err != nil {
			t.Fatal(err)
		}
		var res JobResult
		if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if res.Count != ref.Count || res.TotalPatterns != ref.TotalPatterns {
			t.Fatalf("job %s: count %d / %d patterns, direct run %d / %d",
				job.ID, res.Count, res.TotalPatterns, ref.Count, ref.TotalPatterns)
		}
		// Counts and supports must match position for position; only the
		// representative edge list rendering a pattern class may vary
		// between runs (as in any concurrent run).
		for i, pc := range res.Patterns {
			if pc.Count != ref.Patterns[i].Count || pc.Support != ref.Patterns[i].Support {
				t.Fatalf("job %s pattern %d: %+v, direct %+v", job.ID, i, pc, ref.Patterns[i])
			}
		}
	}

	// Admission serialized the jobs: ordered by start, each job began only
	// after its predecessor finished (the release happens after FinishedAt).
	sort.Slice(finished, func(i, j int) bool { return finished[i].StartedAt.Before(finished[j].StartedAt) })
	for i := 1; i < jobs; i++ {
		if finished[i].StartedAt.Before(finished[i-1].FinishedAt) {
			t.Fatalf("job %s started %v before its predecessor %s finished (%v)",
				finished[i].ID, finished[i].StartedAt, finished[i-1].ID, finished[i-1].FinishedAt)
		}
	}

	// The combined resident bytes never exceeded the shared budget.
	if eng.PeakBytes() > budget {
		t.Fatalf("combined resident peak %d over the %d budget", eng.PeakBytes(), budget)
	}

	// Metrics: three completed runs, one graph load shared by all jobs.
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var m Metrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if m.Jobs[StateDone] != jobs || m.Engine.CompletedRuns != jobs || m.Engine.ActiveRuns != 0 {
		t.Fatalf("metrics after %d jobs: %+v", jobs, m)
	}
	if m.Cache.Misses != 1 || m.Cache.Hits != jobs-1 {
		t.Fatalf("cache loaded %d times (hits %d) for %d jobs over one graph", m.Cache.Misses, m.Cache.Hits, jobs)
	}
	if m.Engine.ReservedBytes != 0 {
		t.Fatalf("reserved bytes leaked: %d", m.Engine.ReservedBytes)
	}

	// Listing covers all jobs, newest first.
	resp, err = http.Get(ts.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list []Job
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list) != jobs || list[0].ID != ids[jobs-1] {
		t.Fatalf("listing: %d jobs, first %s", len(list), list[0].ID)
	}

	// All spill files reclaimed once the runs are done.
	if files := spillFiles(t, spill); len(files) != 0 {
		t.Fatalf("spill files leaked: %v", files)
	}
}

// TestServiceCancelAndDeadline exercises the two queued-job failure paths
// over HTTP: client cancellation and admission-deadline expiry, both while a
// blocker admission pins the whole budget.
func TestServiceCancelAndDeadline(t *testing.T) {
	path := writeGraphFile(t)
	eng := &kaleido.Engine{MemoryBudget: 1 << 20, SpillDir: t.TempDir()}
	srv := NewServer(eng, "", 2)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	blocker, err := eng.Admit(context.Background(), kaleido.AdmitRequest{ProjectedBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}

	spec := JobSpec{App: "tc", GraphPath: path, ProjectedBytes: 1 << 20}

	// Deadline: the job must fail with the typed admission-deadline error.
	dspec := spec
	dspec.QueueDeadlineMS = 50
	djob := postJob(t, ts.URL, dspec)
	djob = waitJob(t, ts.URL, djob.ID)
	if djob.State != StateFailed || djob.ErrorKind != "deadline" {
		t.Fatalf("deadline job: %s kind=%q err=%q", djob.State, djob.ErrorKind, djob.Error)
	}

	// Cancel: a queued job transitions to canceled when the client cancels.
	cjob := postJob(t, ts.URL, spec)
	deadline := time.Now().Add(5 * time.Second)
	for getJob(t, ts.URL, cjob.ID).State != StateQueued || eng.Stats().QueuedRuns == 0 {
		if time.Now().After(deadline) {
			t.Fatal("job never queued behind the blocker")
		}
		time.Sleep(time.Millisecond)
	}
	resp, err := http.Post(ts.URL+"/jobs/"+cjob.ID+"/cancel", "application/json", nil)
	if err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel: %v %v", resp.StatusCode, err)
	}
	resp.Body.Close()
	cjob = waitJob(t, ts.URL, cjob.ID)
	if cjob.State != StateCanceled {
		t.Fatalf("canceled job: %s (%s)", cjob.State, cjob.Error)
	}
	// Its result route reports the terminal state.
	resp, err = http.Get(ts.URL + "/jobs/" + cjob.ID + "/result")
	if err != nil || resp.StatusCode != http.StatusConflict {
		t.Fatalf("result of canceled job: HTTP %d, %v", resp.StatusCode, err)
	}
	resp.Body.Close()

	// Freed headroom after the blocker releases: the same spec now runs.
	blocker.Release()
	okJob := postJob(t, ts.URL, spec)
	if okJob = waitJob(t, ts.URL, okJob.ID); okJob.State != StateDone {
		t.Fatalf("post-release job: %s (%s)", okJob.State, okJob.Error)
	}
	resp, err = http.Get(ts.URL + "/jobs/nope")
	if err != nil || resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: HTTP %d, %v", resp.StatusCode, err)
	}
	resp.Body.Close()
}

// TestServiceDrain checks the SIGTERM path: drain refuses new submissions,
// waits out in-flight jobs, and leaves no spill files and no stray
// goroutines behind.
func TestServiceDrain(t *testing.T) {
	path := writeGraphFile(t)
	baseline := runtime.NumGoroutine()

	spill := t.TempDir()
	eng := &kaleido.Engine{MemoryBudget: 1 << 20, SpillDir: spill, Threads: 2}
	srv := NewServer(eng, "", 2)
	ts := httptest.NewServer(srv)

	spec := JobSpec{App: "motif", K: 4, GraphPath: path, Threads: 2}
	var jobs []Job
	for i := 0; i < 2; i++ {
		jobs = append(jobs, postJob(t, ts.URL, spec))
	}
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	for _, job := range jobs {
		if final := waitJob(t, ts.URL, job.ID); final.State != StateDone {
			t.Fatalf("drained job %s: %s (%s)", job.ID, final.State, final.Error)
		}
	}

	// Draining: submissions 503, health 503.
	body, _ := json.Marshal(&spec)
	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil || resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: HTTP %d, %v", resp.StatusCode, err)
	}
	resp.Body.Close()
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: HTTP %d, %v", resp.StatusCode, err)
	}
	resp.Body.Close()

	if files := spillFiles(t, spill); len(files) != 0 {
		t.Fatalf("spill files survived the drain: %v", files)
	}

	// Every job runner has exited; after the test server closes, the
	// goroutine count settles back to (about) where it started.
	ts.Close()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > baseline+2 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked after drain: %d, baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestServiceDrainCancels covers the bounded drain: when the context expires
// first, in-flight jobs are canceled and still unwind cleanly.
func TestServiceDrainCancels(t *testing.T) {
	path := writeGraphFile(t)
	spill := t.TempDir()
	eng := &kaleido.Engine{MemoryBudget: 1 << 20, SpillDir: spill}
	srv := NewServer(eng, "", 2)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Pin the budget so the job wedges in the admission queue forever.
	blocker, err := eng.Admit(context.Background(), kaleido.AdmitRequest{ProjectedBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer blocker.Release()
	job := postJob(t, ts.URL, JobSpec{App: "tc", GraphPath: path, ProjectedBytes: 1 << 20})

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := srv.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("bounded drain = %v", err)
	}
	if final := waitJob(t, ts.URL, job.ID); final.State != StateCanceled {
		t.Fatalf("wedged job after forced drain: %s (%s)", final.State, final.Error)
	}
	if files := spillFiles(t, spill); len(files) != 0 {
		t.Fatalf("spill files survived the forced drain: %v", files)
	}
}

// TestSubmitRefusesBadBodies: the submit route decodes strictly and boundedly.
// A spec carrying a field the server does not know — here compress_resident
// and shards, knobs that no longer exist — is a 400 naming the unknown field,
// not a silent accept; so is a motif or FSM k past the pattern size, before
// any graph is loaded; a body past the 1 MiB cap is refused without being read
// whole; and neither leaves the server unable to take the next valid job.
func TestSubmitRefusesBadBodies(t *testing.T) {
	path := writeGraphFile(t)
	srv := NewServer(&kaleido.Engine{}, "", 2)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	post := func(body []byte) (int, string) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var e struct {
			Error string `json:"error"`
		}
		json.NewDecoder(resp.Body).Decode(&e)
		return resp.StatusCode, e.Error
	}
	graph, _ := json.Marshal(path)
	for _, field := range []string{`"compress_resident":false`, `"shards":2`, `"predict":true`} {
		name := strings.Split(field, ":")[0]
		body := []byte(`{"app":"tc","graph":` + string(graph) + `,` + field + `}`)
		if code, msg := post(body); code != http.StatusBadRequest || !strings.Contains(msg, "unknown field "+name) {
			t.Fatalf("spec with %s: HTTP %d %q, want 400 naming the unknown field", name, code, msg)
		}
	}
	for _, app := range []string{"motif", "fsm"} {
		body := []byte(`{"app":"` + app + `","k":9,"graph":` + string(graph) + `}`)
		if code, msg := post(body); code != http.StatusBadRequest || !strings.Contains(msg, "k <= 8") {
			t.Fatalf("%s with k = 9: HTTP %d %q, want 400 naming the bound", app, code, msg)
		}
	}
	huge := []byte(`{"app":"tc","graph":"` + strings.Repeat("a", maxSpecBytes) + `"}`)
	if code, msg := post(huge); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("%d-byte spec: HTTP %d %q, want 413", len(huge), code, msg)
	}
	if n := len(srv.Jobs()); n != 0 {
		t.Fatalf("refused specs registered %d jobs", n)
	}
	job := postJob(t, ts.URL, JobSpec{App: "tc", GraphPath: path})
	if job = waitJob(t, ts.URL, job.ID); job.State != StateDone {
		t.Fatalf("valid job after the refusals: %s (%s)", job.State, job.Error)
	}
}

// TestHTTPServerTimeouts: the daemon's listener bounds every phase of a
// connection, and a client that stops sending a job spec mid-body is cut off
// — answered and disconnected, no job registered — instead of holding a
// goroutine and a socket until it goes away.
func TestHTTPServerTimeouts(t *testing.T) {
	srv := NewServer(&kaleido.Engine{}, "", 2)
	hs := NewHTTPServer("127.0.0.1:0", srv)
	for name, got := range map[string]time.Duration{
		"ReadHeaderTimeout": hs.ReadHeaderTimeout, "ReadTimeout": hs.ReadTimeout,
		"WriteTimeout": hs.WriteTimeout, "IdleTimeout": hs.IdleTimeout,
	} {
		if got <= 0 {
			t.Errorf("%s not set", name)
		}
	}
	if hs.Handler != srv || hs.Addr != "127.0.0.1:0" {
		t.Fatalf("server built for %v on %q", hs.Handler, hs.Addr)
	}

	// Same server, a read timeout short enough to wait out here.
	hs.ReadTimeout = 200 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	defer func() {
		hs.Close()
		if err := <-served; !errors.Is(err, http.ErrServerClosed) {
			t.Errorf("Serve: %v", err)
		}
	}()
	// The server starts its read clock when it accepts the connection, which
	// may happen before Dial returns here: start the client's clock first.
	start := time.Now()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprint(conn, "POST /jobs HTTP/1.1\r\nHost: kaleidod\r\nContent-Type: application/json\r\nContent-Length: 100\r\n\r\n{\"app\":")
	conn.SetReadDeadline(time.Now().Add(10 * time.Second)) // far past the server's timeout
	r := bufio.NewReader(conn)
	resp, err := http.ReadResponse(r, nil)
	if err != nil {
		t.Fatalf("stalled upload: no answer from the server: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("stalled upload: HTTP %d %q (%v), want 400", resp.StatusCode, body, err)
	}
	if b, err := r.ReadByte(); err == nil {
		t.Fatalf("stalled upload: byte %q after the answer", b)
	} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatal("stalled upload: connection still open after the answer")
	}
	if waited := time.Since(start); waited < hs.ReadTimeout {
		t.Fatalf("stalled upload answered after %v, before the %v read timeout", waited, hs.ReadTimeout)
	}
	if n := len(srv.Jobs()); n != 0 {
		t.Fatalf("stalled upload registered %d jobs", n)
	}
}
