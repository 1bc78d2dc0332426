package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"kaleido"
)

const (
	servedClients = 2
	pollInterval  = 2 * time.Millisecond
	// jobDeadline fails a job that sits non-terminal, so that a stuck
	// daemon fails the workload and does not hang it.
	jobDeadline = 60 * time.Second
)

// servedClass is one kind of job of the served mix.
type servedClass struct {
	name  string
	app   string
	k     int
	onB   bool // runs over the second edge-list file
	share int  // occurrences in the cycle of 20 jobs
}

// servedMix: 30% tc, 50% clique k=4, 20% motif k=3. The half of the jobs
// in the middle class keeps the median latency inside one class (tc ~3 ms,
// clique ~70 ms, motif ~160 ms at one daemon thread).
var servedMix = []servedClass{
	{name: "tc.A", app: "tc", share: 3},
	{name: "tc.B", app: "tc", onB: true, share: 3},
	{name: "clique4.A", app: "clique", k: 4, share: 10},
	{name: "motif3.B", app: "motif", k: 3, onB: true, share: 4},
}

// servedObs is one served job as the client saw it.
type servedObs struct {
	class                        int
	latency                      float64 // seconds, POST to result fetched
	submitMS, queueWaitMS, runMS float64
	peak                         int64 // the job's own tracked peak
}

// liveDaemons are the process groups a signal handler must kill.
var liveDaemons struct {
	sync.Mutex
	pgids map[int]bool
}

func killLiveDaemons() {
	liveDaemons.Lock()
	defer liveDaemons.Unlock()
	for pgid := range liveDaemons.pgids {
		_ = syscall.Kill(-pgid, syscall.SIGKILL) // best effort on the way out
	}
}

type servedRunner struct {
	w      *workload
	e      *env
	dir    string
	paths  [2]string
	want   counts
	cmd    *exec.Cmd
	exited chan struct{} // closed when the daemon process has been waited for
	base   string
	client *http.Client
	order  []int // seeded job sequence (indexes into servedMix), cycled
	// next is the position in order of the untraced and of the traced jobs:
	// both walk the same sequence, so the two sides of the tracing-overhead
	// ratio serve the same classes.
	next [2]atomic.Int64

	mu      sync.Mutex
	traced  []servedObs // every job served under a tracer
	elapsed float64     // seconds the traced jobs took, clients in parallel
	refused int
}

// openServed writes the two edge lists, starts the daemon on a free port,
// waits for /healthz and loads both graphs once.
func openServed(w *workload, e *env, want counts, tr *tracer) (_ runner, err error) {
	dir, err := e.tempDir("served")
	if err != nil {
		return nil, err
	}
	r := &servedRunner{w: w, e: e, dir: dir, want: want, exited: make(chan struct{})}
	r.client = &http.Client{Timeout: 10 * time.Second}
	for i, el := range servedInputs(w, e.seed) {
		r.paths[i] = filepath.Join(dir, fmt.Sprintf("graph%c.txt", 'A'+i))
		if err := el.writeFile(r.paths[i]); err != nil {
			return nil, err
		}
	}
	if tr != nil {
		s, err := tr.do(0, 0, "graph.parse", func(int) error {
			_, err := kaleido.LoadEdgeListFile(r.paths[0])
			return err
		})
		if err != nil {
			return nil, err
		}
		tr.add("graph.parse_s", s)
	}
	// 120 jobs in seeded order: six cycles, each the fixed multiset in an
	// order of its own, so that which jobs meet in the daemon differs from
	// cycle to cycle and a run's median averages over it.
	rng := rand.New(rand.NewSource(e.seed))
	for cycle := 0; cycle < 6; cycle++ {
		at := len(r.order)
		for i, c := range servedMix {
			for n := 0; n < c.share; n++ {
				r.order = append(r.order, i)
			}
		}
		rng.Shuffle(cycleLen, func(i, j int) {
			r.order[at+i], r.order[at+j] = r.order[at+j], r.order[at+i]
		})
	}
	// The first job of each client is the warm-up that set-up time includes:
	// it is always of the middle class, so that setup_s does not depend on
	// whether the seed drew a 3 ms or a 160 ms job first.
	front := 0
	for i, class := range r.order[:cycleLen] {
		if servedMix[class].app == "clique" && front < servedClients {
			r.order[front], r.order[i] = r.order[i], r.order[front]
			front++
		}
	}

	// Bind-then-close picks a port nothing else holds right now.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()
	r.base = "http://" + addr

	spill := filepath.Join(dir, "spill")
	if err := os.Mkdir(spill, 0o755); err != nil {
		return nil, err
	}
	logFile, err := os.Create(filepath.Join(dir, "daemon.log"))
	if err != nil {
		return nil, err
	}
	defer logFile.Close()
	r.cmd = exec.Command(e.kaleidod, "-addr", addr, "-budget", strconv.FormatInt(w.Budget, 10), "-spill", spill, "-threads", "1")
	r.cmd.Stdout, r.cmd.Stderr = logFile, logFile
	r.cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	if err := r.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start kaleidod: %w", err)
	}
	liveDaemons.Lock()
	if liveDaemons.pgids == nil {
		liveDaemons.pgids = map[int]bool{}
	}
	liveDaemons.pgids[r.cmd.Process.Pid] = true
	liveDaemons.Unlock()
	go func() {
		_ = r.cmd.Wait() // exit status is not a result; close() reports hangs
		close(r.exited)
	}()
	defer func() {
		if err != nil {
			r.close()
		}
	}()

	if err := r.waitHealthy(); err != nil {
		return nil, err
	}
	// First load of both graphs: users of a daemon pay it once.
	for i := range servedMix[:2] {
		if _, err := r.serve(nil, i); err != nil {
			return nil, err
		}
	}
	return r, nil
}

func (r *servedRunner) waitHealthy() error {
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
		select {
		case <-r.exited:
			return fmt.Errorf("kaleidod exited during start-up (see %s)", filepath.Join(r.dir, "daemon.log"))
		default:
		}
		resp, err := r.client.Get(r.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("kaleidod not healthy after 10 s")
}

// close stops the daemon's process group and waits until it has ended.
func (r *servedRunner) close() error {
	pgid := r.cmd.Process.Pid
	_ = syscall.Kill(-pgid, syscall.SIGTERM) // already gone is fine
	var err error
	select {
	case <-r.exited:
	case <-time.After(5 * time.Second):
		_ = syscall.Kill(-pgid, syscall.SIGKILL)
		<-r.exited
		err = fmt.Errorf("kaleidod did not drain within 5 s of SIGTERM; killed")
	}
	liveDaemons.Lock()
	delete(liveDaemons.pgids, pgid)
	liveDaemons.Unlock()
	if rmErr := os.RemoveAll(r.dir); err == nil {
		err = rmErr
	}
	return err
}

// wire types: the fields of kaleidod's JSON this client reads.
type wireJob struct {
	ID          string    `json:"id"`
	State       string    `json:"state"`
	Error       string    `json:"error"`
	QueueWaitMS float64   `json:"queue_wait_ms"`
	StartedAt   time.Time `json:"started_at"`
	FinishedAt  time.Time `json:"finished_at"`
}

type wireResult struct {
	Count    uint64                    `json:"count"`
	Stats    struct{ PeakBytes int64 } `json:"stats"`
	Patterns []struct {
		Count uint64 `json:"count"`
	} `json:"patterns"`
}

type wireMetrics struct {
	Engine struct{ PeakBytes int64 } `json:"engine"`
	Cache  struct {
		Misses int64 `json:"misses"`
	} `json:"cache"`
}

// call makes one HTTP request and decodes the JSON reply into out.
func (r *servedRunner) call(method, path string, body []byte, wantStatus int, out any) error {
	req, err := http.NewRequest(method, r.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	if resp.StatusCode != wantStatus {
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, out)
}

// serve runs one job of the class through the daemon: POST /jobs, poll the
// job until it is terminal, fetch and check the result.
func (r *servedRunner) serve(tr *tracer, class int) (servedObs, error) {
	c := servedMix[class]
	spec := map[string]any{"app": c.app, "graph": r.paths[0]}
	if c.onB {
		spec["graph"] = r.paths[1]
	}
	if c.k > 0 {
		spec["k"] = c.k
	}
	body, err := json.Marshal(spec)
	if err != nil {
		return servedObs{}, err
	}
	obs := servedObs{class: class}
	var job wireJob
	var res wireResult
	jobID := tr.newJob()
	obs.latency, err = tr.do(jobID, 0, "job", func(root int) error {
		s, err := tr.do(jobID, root, "service.submit", func(int) error {
			return r.call(http.MethodPost, "/jobs", body, http.StatusAccepted, &job)
		})
		obs.submitMS = s * 1e3
		if err != nil {
			r.mu.Lock()
			r.refused++
			r.mu.Unlock()
			return err
		}
		_, err = tr.do(jobID, root, "service.poll", func(int) error {
			for start := time.Now(); ; time.Sleep(pollInterval) {
				if err := r.call(http.MethodGet, "/jobs/"+job.ID, nil, http.StatusOK, &job); err != nil {
					return err
				}
				switch job.State {
				case "done":
					return nil
				case "failed", "canceled":
					return fmt.Errorf("job %s %s: %s", job.ID, job.State, job.Error)
				}
				if time.Since(start) > jobDeadline {
					return fmt.Errorf("job %s still %s after %s", job.ID, job.State, jobDeadline)
				}
			}
		})
		if err != nil {
			return err
		}
		_, err = tr.do(jobID, root, "service.fetch", func(int) error {
			return r.call(http.MethodGet, "/jobs/"+job.ID+"/result", nil, http.StatusOK, &res)
		})
		return err
	})
	if err != nil {
		return obs, fmt.Errorf("%s: %w", c.name, err)
	}
	obs.peak = res.Stats.PeakBytes
	obs.queueWaitMS = job.QueueWaitMS
	obs.runMS = job.FinishedAt.Sub(job.StartedAt).Seconds() * 1e3
	got := counts{c.name: res.Count}
	for _, p := range res.Patterns {
		got[c.name+".patterns"] += p.Count
	}
	want := counts{c.name: r.want[c.name]}
	if c.app == "motif" {
		want[c.name+".patterns"] = r.want[c.name]
	}
	if d := want.diff(got); d != "" {
		return obs, fmt.Errorf("%s: wrong served result: %s", r.w.Name, d)
	}
	return obs, nil
}

// cycleLen is the size of the multiset the job sequence repeats: jobs
// [i*cycleLen, (i+1)*cycleLen) of the sequence are the same classes in
// another order.
var cycleLen = func() (n int) {
	for _, c := range servedMix {
		n += c.share
	}
	return n
}()

// measure runs the closed loop: servedClients clients, each sending its
// next job when the previous one has been fetched. A sample of res.Wall is
// the mean latency over one cycle of the job sequence, so every sample
// averages the same jobs. (A single job's latency is bimodal under this
// budget: a clique either runs at once or waits out the other client's job,
// and the median over jobs sits on the boundary between the two.)
func (r *servedRunner) measure(d time.Duration, tr *tracer) result {
	var res result
	pid := r.cmd.Process.Pid
	if _, err := procCPU(pid); err != nil {
		res.Attempted++
		res.fail(err)
		return res
	}
	next := &r.next[0]
	if tr != nil {
		next = &r.next[1]
	}
	if d > 0 {
		// A timed stretch starts on a cycle boundary of the sequence.
		next.Store((next.Load() + int64(cycleLen) - 1) / int64(cycleLen) * int64(cycleLen))
	}
	first := next.Load()
	start := time.Now()
	latency := map[int64]float64{} // by position; absent = failed
	var cpuAt []float64            // the daemon's CPU seconds at the start of each cycle
	// take hands out the next position of the sequence. A timed stretch ends
	// with the first cycle that completes after d (every sample is a whole
	// cycle); d = 0 is one job per client.
	take := func() (int64, bool) {
		for {
			pos := next.Load()
			done := pos-first >= servedClients
			if d > 0 {
				done = time.Since(start) >= d && (pos-first)%int64(cycleLen) == 0
			}
			if done {
				return 0, false
			}
			if next.CompareAndSwap(pos, pos+1) {
				if (pos-first)%int64(cycleLen) == 0 {
					// A cycle begins: the daemon's CPU clock is read, so that
					// every cycle gives a sample of CPU per job as well.
					cpu, _ := procCPU(pid) // a dead daemon fails the jobs
					r.mu.Lock()
					cpuAt = append(cpuAt, cpu)
					r.mu.Unlock()
				}
				return pos, true
			}
		}
	}
	var wg sync.WaitGroup
	for c := 0; c < servedClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for pos, ok := take(); ok; pos, ok = take() {
				obs, err := r.serve(tr, r.order[int(pos)%len(r.order)])
				r.mu.Lock()
				res.Attempted++
				if err != nil {
					res.fail(err)
				} else {
					latency[pos] = obs.latency
					if tr != nil {
						r.traced = append(r.traced, obs)
					}
				}
				r.mu.Unlock()
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	cpu1, err := procCPU(pid)
	if err != nil {
		res.fail(err)
		return res
	}
	cpuAt = append(cpuAt, cpu1)
	sort.Float64s(cpuAt) // two clients may have appended out of order
	for i, lo, end := 0, first, next.Load(); lo < end; i, lo = i+1, lo+int64(cycleLen) {
		hi := min(lo+int64(cycleLen), end)
		var total float64
		served := 0
		for pos := lo; pos < hi; pos++ {
			if l, ok := latency[pos]; ok {
				total += l
				served++
			}
		}
		if served == int(hi-lo) { // a cycle with a failed job is no sample
			res.Wall = append(res.Wall, total/float64(served))
			res.CPU = append(res.CPU, (cpuAt[i+1]-cpuAt[i])/float64(served))
		}
	}
	// The tracked peak a daemon's user provisions for is the engine's: the
	// jobs admission let overlap, combined.
	var m wireMetrics
	if err := r.call(http.MethodGet, "/metrics", nil, http.StatusOK, &m); err != nil {
		res.fail(err)
		return res
	}
	res.Peak = m.Engine.PeakBytes
	if tr != nil {
		r.elapsed += elapsed
	}
	return res
}

// probe runs every class directly on an Engine with the daemon's thread
// count (served latency minus that is what the service layers add) and
// sums up what the traced jobs observed of the service.
func (r *servedRunner) probe(tr *tracer) (bool, error) {
	direct := make([]float64, len(servedMix))
	var graphs [2]*kaleido.Graph
	for i, path := range r.paths {
		g, err := kaleido.LoadEdgeListFile(path)
		if err != nil {
			return false, err
		}
		graphs[i] = g
	}
	eng := &kaleido.Engine{Threads: 1}
	for i, c := range servedMix {
		g := graphs[0]
		if c.onB {
			g = graphs[1]
		}
		var samples []float64
		for rep := 0; rep < 3; rep++ {
			tm, err := timed(func() error {
				n, err := directCount(eng, g, c)
				if err == nil && n != r.want[c.name] {
					err = fmt.Errorf("%s: direct Engine result %d, want %d", c.name, n, r.want[c.name])
				}
				return err
			})
			if err != nil {
				return false, err
			}
			samples = append(samples, tm.wall)
		}
		direct[i] = median(samples)
	}
	var m wireMetrics
	if err := r.call(http.MethodGet, "/metrics", nil, http.StatusOK, &m); err != nil {
		return false, err
	}
	var latency, submit, wait, run, over []float64
	var jobPeak int64
	for _, o := range r.traced {
		jobPeak = max(jobPeak, o.peak)
		latency = append(latency, o.latency)
		submit = append(submit, o.submitMS)
		wait = append(wait, o.queueWaitMS)
		run = append(run, o.runMS)
		over = append(over, (o.latency-direct[o.class])*1e3)
	}
	tr.add("service.submit_ms", median(submit))
	// Most jobs are granted at once, so the median wait is 0 whatever
	// admission does: the mean is the number that moves.
	tr.add("service.queue_wait_ms", sum(wait)/float64(max(len(wait), 1)))
	tr.add("service.queue_wait_max_ms", summarize(wait).Max)
	tr.add("service.run_ms", median(run))
	tr.add("service.overhead_ms", median(over))
	if sort.Float64s(latency); len(latency) > 0 {
		tr.add("service.job_p50_s", quantile(latency, 0.5))
		tr.add("service.job_p90_s", quantile(latency, 0.9))
	}
	tr.add("service.jobs_per_s", float64(len(r.traced))/r.elapsed)
	tr.add("service.cache_loads", float64(m.Cache.Misses))
	tr.add("service.job_peak_bytes", float64(jobPeak))
	tr.add("service.refused", float64(r.refused))
	if rss, err := procRSSPeak(r.cmd.Process.Pid); err == nil {
		tr.add("process.rss_peak_bytes", float64(rss))
	}
	return false, nil
}

// directCount runs one class on eng without the service layers.
func directCount(eng *kaleido.Engine, g *kaleido.Graph, c servedClass) (uint64, error) {
	switch c.app {
	case "tc":
		return eng.Triangles(ctx, g, kaleido.Config{})
	case "clique":
		return eng.Cliques(ctx, g, c.k, kaleido.Config{})
	}
	pcs, err := eng.Motifs(ctx, g, c.k, kaleido.Config{})
	var n uint64
	for _, pc := range pcs {
		n += pc.Count
	}
	return n, err
}
