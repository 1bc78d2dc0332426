// Package service is the mining-as-a-service layer behind cmd/kaleidod: an
// HTTP/JSON front end that accepts JobSpec submissions, runs each job on a
// shared kaleido.Engine, and exposes status, results, metrics and
// cancellation.
//
// Every job passes the engine's admission controller before it executes:
// Submit queues the job, and its runner calls Engine.Admit with the spec's
// priority, queue deadline and projected resident bytes (defaulted from
// Graph.ProjectResidentBytes). A job is released only when its projection
// fits under the engine's admission watermark, so N submitted jobs drain
// through the shared memory budget in priority order instead of all starting
// at once and shoving each other onto disk. Deadline-expired jobs fail with
// kaleido.ErrAdmitDeadline; a full queue rejects with kaleido.ErrQueueFull.
//
// Input graphs load once through a refcounted GraphCache and are shared by
// every job naming the same dataset or file.
//
// Routes:
//
//	POST   /jobs             submit a JobSpec, returns {"id": ...} (202)
//	GET    /jobs             list jobs, newest first
//	GET    /jobs/{id}        status: state, timings, queue wait, stats
//	GET    /jobs/{id}/result result of a done job (409 until done)
//	POST   /jobs/{id}/cancel cancel a queued or running job
//	DELETE /jobs/{id}        same as cancel
//	GET    /metrics          engine + cache + job-state counters
//	GET    /healthz          liveness ("ok", or 503 while draining)
//
// Lifecycle: queued → running → done | failed | canceled. Drain stops
// admission of new jobs and waits for in-flight ones — the SIGTERM path of
// cmd/kaleidod.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"kaleido"
)

// JobState is a job's lifecycle phase.
type JobState string

const (
	// StateQueued: submitted, waiting for graph load + budget admission.
	StateQueued JobState = "queued"
	// StateRunning: admitted and executing on the engine.
	StateRunning JobState = "running"
	// StateDone: finished with a result.
	StateDone JobState = "done"
	// StateFailed: finished with an error (admission deadline, bad input,
	// run failure).
	StateFailed JobState = "failed"
	// StateCanceled: canceled by the client while queued or running.
	StateCanceled JobState = "canceled"
)

// Job is the server-side record of one submitted job.
type Job struct {
	ID    string   `json:"id"`
	Spec  JobSpec  `json:"spec"`
	State JobState `json:"state"`
	// Error holds the failure message of a failed job.
	Error string `json:"error,omitempty"`
	// ErrorKind classifies typed failures: "queue_full", "deadline",
	// "spill_io", "spill_corrupt", "no_space", or "" for everything else.
	ErrorKind string `json:"error_kind,omitempty"`
	// SubmittedAt/StartedAt/FinishedAt bracket the lifecycle; StartedAt is
	// the moment the job cleared admission.
	SubmittedAt time.Time `json:"submitted_at"`
	StartedAt   time.Time `json:"started_at,omitempty"`
	FinishedAt  time.Time `json:"finished_at,omitempty"`
	// QueueWaitMS is how long the job waited for budget admission.
	QueueWaitMS int64 `json:"queue_wait_ms"`
	// ProjectedBytes is the resident-bytes projection the job was admitted
	// under.
	ProjectedBytes int64 `json:"projected_bytes,omitempty"`
	// Result is present once State is done.
	Result *JobResult `json:"result,omitempty"`

	cancel context.CancelFunc
}

// Server runs mining jobs over one shared Engine. Create with NewServer;
// the zero value is not usable.
type Server struct {
	eng      *kaleido.Engine
	cache    *GraphCache
	cacheDir string

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string // submission order; listings walk it newest-first
	seq      int
	draining bool
	wg       sync.WaitGroup

	// queueWaitTotalMS accumulates admission waits for /metrics.
	queueWaitTotalMS int64
}

// NewServer creates a Server over eng. cacheDir is the on-disk dataset cache
// ("" regenerates synthetic datasets per load); cacheGraphs bounds the
// in-memory graph cache's unreferenced entries (<= 0 keeps none).
func NewServer(eng *kaleido.Engine, cacheDir string, cacheGraphs int) *Server {
	return &Server{
		eng:      eng,
		cache:    NewGraphCache(cacheGraphs),
		cacheDir: cacheDir,
		jobs:     make(map[string]*Job),
	}
}

// Engine returns the shared engine (for metrics and tests).
func (s *Server) Engine() *kaleido.Engine { return s.eng }

// Submit validates spec, registers a job, and starts its runner. It returns
// the job record immediately — execution is asynchronous; poll /jobs/{id}.
// Submissions are refused once Drain has been called.
func (s *Server) Submit(spec JobSpec) (*Job, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		cancel()
		return nil, errDraining
	}
	s.seq++
	job := &Job{
		ID:          fmt.Sprintf("j%d", s.seq),
		Spec:        spec,
		State:       StateQueued,
		SubmittedAt: time.Now(),
		cancel:      cancel,
	}
	s.jobs[job.ID] = job
	s.order = append(s.order, job.ID)
	s.wg.Add(1)
	s.mu.Unlock()
	go s.runJob(ctx, cancel, job)
	return s.snapshot(job.ID), nil
}

var errDraining = errors.New("service: draining, not accepting jobs")

// runJob is a job's whole life: load (or share) the graph, clear admission,
// execute, record the outcome. The admission is released only after
// FinishedAt is set, so under a serializing budget a later job's StartedAt
// never precedes an earlier job's FinishedAt.
func (s *Server) runJob(ctx context.Context, cancel context.CancelFunc, job *Job) {
	defer s.wg.Done()
	defer cancel()

	spec := &job.Spec
	g, releaseGraph, err := s.cache.Acquire(spec.GraphKey(), func() (*kaleido.Graph, error) {
		return spec.LoadGraph(s.cacheDir)
	})
	if err != nil {
		s.finishJob(job, nil, err)
		return
	}
	defer releaseGraph()

	projected := spec.ProjectedBytes
	if projected == 0 {
		if app, aerr := spec.AppID(); aerr == nil {
			projected = g.ProjectResidentBytes(app, spec.K)
		}
	}
	s.mu.Lock()
	job.ProjectedBytes = projected
	s.mu.Unlock()

	adm, err := s.eng.Admit(ctx, kaleido.AdmitRequest{
		ProjectedBytes: projected,
		Priority:       spec.Priority,
		Deadline:       spec.Deadline(job.SubmittedAt),
	})
	if err != nil {
		s.finishJob(job, nil, err)
		return
	}
	defer adm.Release()

	started := time.Now()
	wait := started.Sub(job.SubmittedAt)
	s.mu.Lock()
	if job.State == StateQueued {
		job.State = StateRunning
		job.StartedAt = started
		job.QueueWaitMS = wait.Milliseconds()
		s.queueWaitTotalMS += wait.Milliseconds()
	}
	s.mu.Unlock()

	var stats kaleido.Stats
	res, err := Execute(ctx, s.eng, g, spec, &stats)
	s.finishJob(job, res, err)
}

// finishJob records a job's terminal state. It runs before the runner's
// deferred admission release (defers run LIFO after the function body), so
// FinishedAt is visible before the freed headroom can admit a successor.
func (s *Server) finishJob(job *Job, res *JobResult, err error) {
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	job.FinishedAt = now
	switch {
	case err == nil:
		job.State = StateDone
		job.Result = res
	case errors.Is(err, context.Canceled):
		job.State = StateCanceled
	default:
		job.State = StateFailed
		job.Error = err.Error()
		job.ErrorKind = errorKind(err)
	}
}

// errorKind maps the system's typed errors to stable wire labels.
func errorKind(err error) string {
	switch {
	case errors.Is(err, kaleido.ErrQueueFull):
		return "queue_full"
	case errors.Is(err, kaleido.ErrAdmitDeadline):
		return "deadline"
	case errors.Is(err, kaleido.ErrSpillCorrupt):
		return "spill_corrupt"
	case errors.Is(err, kaleido.ErrNoSpace):
		return "no_space"
	case errors.Is(err, kaleido.ErrSpillIO):
		return "spill_io"
	case errors.Is(err, context.DeadlineExceeded):
		return "deadline"
	}
	return ""
}

// Cancel cancels a queued or running job. Terminal jobs are left as they
// are; the returned job reflects the state at call time (the transition to
// canceled lands when the runner observes the cancellation).
func (s *Server) Cancel(id string) (*Job, bool) {
	s.mu.Lock()
	job, ok := s.jobs[id]
	var cancel context.CancelFunc
	if ok && (job.State == StateQueued || job.State == StateRunning) {
		cancel = job.cancel
	}
	s.mu.Unlock()
	if !ok {
		return nil, false
	}
	if cancel != nil {
		cancel()
	}
	return s.snapshot(id), true
}

// Drain stops accepting submissions and waits for in-flight jobs to finish.
// If ctx expires first, the remaining jobs are canceled and Drain waits for
// them to unwind (a canceled run discards pending spill writes and removes
// its spill files), then returns ctx.Err().
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()

	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
	}
	s.mu.Lock()
	for _, job := range s.jobs {
		if job.State == StateQueued || job.State == StateRunning {
			job.cancel()
		}
	}
	s.mu.Unlock()
	<-done
	return ctx.Err()
}

// snapshot returns a copy of a job safe to serialize without holding s.mu.
func (s *Server) snapshot(id string) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	job, ok := s.jobs[id]
	if !ok {
		return nil
	}
	cp := *job
	cp.cancel = nil
	return &cp
}

// Jobs lists all jobs, newest first.
func (s *Server) Jobs() []*Job {
	s.mu.Lock()
	ids := make([]string, len(s.order))
	copy(ids, s.order)
	s.mu.Unlock()
	out := make([]*Job, 0, len(ids))
	for i := len(ids) - 1; i >= 0; i-- {
		if j := s.snapshot(ids[i]); j != nil {
			out = append(out, j)
		}
	}
	return out
}

// Metrics is the /metrics document: the engine's aggregate snapshot, the
// graph cache's counters, and the server's job-state tallies.
type Metrics struct {
	Engine kaleido.EngineStats `json:"engine"`
	Cache  CacheStats          `json:"cache"`
	// Jobs tallies jobs by state (queued, running, done, failed, canceled).
	Jobs map[JobState]int `json:"jobs"`
	// QueueWaitTotalMS sums the admission wait of every job that cleared
	// the queue — with Jobs, the average wait falls out.
	QueueWaitTotalMS int64 `json:"queue_wait_total_ms"`
	Draining         bool  `json:"draining"`
}

// Metrics returns a snapshot of the server's counters.
func (s *Server) Metrics() Metrics {
	m := Metrics{
		Engine: s.eng.Stats(),
		Cache:  s.cache.Stats(),
		Jobs:   map[JobState]int{},
	}
	s.mu.Lock()
	for _, job := range s.jobs {
		m.Jobs[job.State]++
	}
	m.QueueWaitTotalMS = s.queueWaitTotalMS
	m.Draining = s.draining
	s.mu.Unlock()
	return m
}

// ServeHTTP routes the service API (hand-rolled: the module targets go1.21,
// before method-qualified ServeMux patterns).
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	path := strings.TrimSuffix(r.URL.Path, "/")
	switch {
	case path == "/healthz":
		s.mu.Lock()
		draining := s.draining
		s.mu.Unlock()
		if draining {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	case path == "/metrics" && r.Method == http.MethodGet:
		writeJSON(w, http.StatusOK, s.Metrics())
	case path == "/jobs" && r.Method == http.MethodPost:
		s.handleSubmit(w, r)
	case path == "/jobs" && r.Method == http.MethodGet:
		writeJSON(w, http.StatusOK, s.Jobs())
	case strings.HasPrefix(path, "/jobs/"):
		s.handleJob(w, r, strings.TrimPrefix(path, "/jobs/"))
	default:
		http.NotFound(w, r)
	}
}

// Timeouts of the daemon's HTTP listener. Clients poll GET /jobs/{id}, so no
// request is long-lived: a request's headers must arrive within
// readHeaderTimeout and the whole request within readTimeout, its response
// must be written within writeTimeout, and a keep-alive connection idle for
// idleTimeout is closed.
const (
	readHeaderTimeout = 10 * time.Second
	readTimeout       = 30 * time.Second
	writeTimeout      = time.Minute
	idleTimeout       = 2 * time.Minute
)

// NewHTTPServer returns the http.Server that serves h on addr with every
// timeout set, so an idle, trickling or stalled client cannot pin a
// goroutine and a socket forever.
func NewHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// maxSpecBytes bounds a submitted job spec: a spec is a few hundred bytes,
// so anything near this is not one, and reading it whole would let one
// request hold the daemon's memory.
const maxSpecBytes = 1 << 20

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		code := http.StatusBadRequest
		if tooLarge := new(http.MaxBytesError); errors.As(err, &tooLarge) {
			code = http.StatusRequestEntityTooLarge
		}
		writeError(w, code, fmt.Errorf("service: bad job spec: %w", err))
		return
	}
	job, err := s.Submit(spec)
	if err != nil {
		code := http.StatusBadRequest
		if errors.Is(err, errDraining) {
			code = http.StatusServiceUnavailable
		}
		writeError(w, code, err)
		return
	}
	writeJSON(w, http.StatusAccepted, job)
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request, rest string) {
	id, sub, _ := strings.Cut(rest, "/")
	job := s.snapshot(id)
	if job == nil {
		http.NotFound(w, r)
		return
	}
	switch {
	case sub == "" && r.Method == http.MethodGet:
		writeJSON(w, http.StatusOK, job)
	case sub == "" && r.Method == http.MethodDelete,
		sub == "cancel" && r.Method == http.MethodPost:
		job, _ := s.Cancel(id)
		writeJSON(w, http.StatusAccepted, job)
	case sub == "result" && r.Method == http.MethodGet:
		switch job.State {
		case StateDone:
			writeJSON(w, http.StatusOK, job.Result)
		case StateFailed, StateCanceled:
			writeError(w, http.StatusConflict, fmt.Errorf("service: job %s %s: %s", id, job.State, job.Error))
		default:
			writeError(w, http.StatusConflict, fmt.Errorf("service: job %s still %s", id, job.State))
		}
	default:
		http.NotFound(w, r)
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
