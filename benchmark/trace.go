package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one job share Job; Parent is
// the ID of the span that caused this one (0 = none).
type span struct {
	Name    string `json:"name"`
	Job     int    `json:"job"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer holds the spans and per-layer samples of a traced run in memory;
// they are written out once, when the run ends. A nil *tracer records
// nothing, which is how the untraced pass runs the same code.
type tracer struct {
	mu      sync.Mutex
	t0      time.Time
	spans   []span
	jobs    int
	samples map[string][]float64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), samples: map[string][]float64{}}
}

// newJob returns the identifier the spans of one job share.
func (t *tracer) newJob() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.jobs++
	return t.jobs
}

// do runs f inside a span and returns the span's ID (for children) and f's
// duration in seconds, measured whether or not tracing is on.
func (t *tracer) do(job, parent int, name string, f func(id int) error) (float64, error) {
	id := 0
	if t != nil {
		t.mu.Lock()
		t.spans = append(t.spans, span{Name: name, Job: job, Parent: parent})
		id = len(t.spans)
		t.spans[id-1].ID = id
		t.mu.Unlock()
	}
	start := time.Now()
	err := f(id)
	end := time.Now()
	if t != nil {
		t.mu.Lock()
		t.spans[id-1].StartNS = start.Sub(t.t0).Nanoseconds()
		t.spans[id-1].EndNS = end.Sub(t.t0).Nanoseconds()
		t.mu.Unlock()
	}
	return end.Sub(start).Seconds(), err
}

// add records one sample of a per-layer metric.
func (t *tracer) add(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.samples[name] = append(t.samples[name], v)
	t.mu.Unlock()
}

// value is the median of a per-layer metric's samples (0 = never sampled:
// the workload bypasses that layer).
func (t *tracer) value(name string) float64 {
	return median(t.samples[name])
}

// selfTimes sums, per span name, duration minus the part covered by child
// spans: where the time of the traced jobs went.
func (t *tracer) selfTimes() map[string]float64 {
	self := map[string]float64{}
	for _, s := range t.spans {
		self[s.Name] += float64(s.EndNS - s.StartNS)
	}
	for _, s := range t.spans {
		if s.Parent > 0 {
			self[t.spans[s.Parent-1].Name] -= float64(s.EndNS - s.StartNS)
		}
	}
	for name := range self {
		self[name] /= 1e9
	}
	return self
}

// writeFile writes the spans and the self-time summary as JSON.
func (t *tracer) writeFile(path string) error {
	doc := struct {
		SelfSeconds map[string]float64 `json:"self_seconds"`
		Spans       []span             `json:"spans"`
	}{t.selfTimes(), t.spans}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// quartiles are the statistics every timing is reported with.
type quartiles struct {
	N                     int
	Min, Q1, Med, Q3, Max float64
}

func summarize(v []float64) quartiles {
	if len(v) == 0 {
		return quartiles{}
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quartiles{N: len(s), Min: s[0], Q1: quantile(s, 0.25), Med: quantile(s, 0.5), Q3: quantile(s, 0.75), Max: s[len(s)-1]}
}

// quantile interpolates the q-quantile of a sorted, non-empty slice.
func quantile(sorted []float64, q float64) float64 {
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	hi := min(lo+1, len(sorted)-1)
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func median(v []float64) float64 { return summarize(v).Med }

// lowerDecile is what one job costs when nothing disturbs it, and the
// estimate of job_s and cpu_s for every workload. Whatever disturbs this
// machine only adds time, in episodes that reach most jobs of a run, so the
// median of identical jobs of identical code read up to 31% apart between
// runs where the fastest tenth held within 1-5% (README.md, "Agreement").
// It moves one to one with a change that slows every job and does not see a
// change that only adds a tail: the median and the quartiles are printed
// beside it, and process.job_p50_s and service.job_p90_s are in the
// per-layer list for that.
func lowerDecile(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, 0.1)
}

// sortedKeys returns the keys of m in order, for deterministic reports.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
