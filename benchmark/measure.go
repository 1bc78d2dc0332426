package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// result is what one closed-loop measurement of a workload produced.
type result struct {
	Attempted, Failed int
	// Wall holds the wall seconds of every job that passed its checks
	// (served-mix: the mean latency of every cycle of jobs that passed).
	Wall []float64
	// CPU holds process CPU seconds (user+sys) per job: one sample per job
	// that passed where jobs run one at a time, one sample per cycle of
	// jobs (daemon CPU / jobs) where they overlap.
	CPU []float64
	// Peak is the largest tracked peak of intermediate data over the jobs.
	Peak int64
	// Errs keeps the first few failure messages for the report.
	Errs []string
}

func (r *result) fail(err error) {
	r.Failed++
	if len(r.Errs) < 5 {
		r.Errs = append(r.Errs, err.Error())
	}
}

// merge adds another stretch of jobs to r.
func (r *result) merge(o result) {
	r.Attempted += o.Attempted
	r.Failed += o.Failed
	r.Wall = append(r.Wall, o.Wall...)
	r.CPU = append(r.CPU, o.CPU...)
	r.Peak = max(r.Peak, o.Peak)
	r.Errs = append(r.Errs, o.Errs...)
}

// runner is one set-up instance of a workload: inputs generated, graphs
// built, daemon started. It runs jobs until closed.
type runner interface {
	// measure runs jobs back to back for d (at least one job) and checks
	// the counts of each. With a tracer, the public calls of every job are
	// wrapped in spans.
	measure(d time.Duration, tr *tracer) result
	// probe replays the job as separately timed public calls whose
	// differences give the per-layer metrics, recorded on tr. more reports
	// whether another replay would add samples.
	probe(tr *tracer) (more bool, err error)
	close() error
}

// selfCPU returns the CPU seconds this process has used.
func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// serialLoop is the closed loop of the in-process workloads: one job at a
// time. job times itself (see timed) and returns its tracked peak.
func serialLoop(d time.Duration, job func() (timing, int64, error)) result {
	var res result
	for start := time.Now(); res.Attempted == 0 || time.Since(start) < d; {
		tm, peak, err := job()
		res.Attempted++
		if err != nil {
			res.fail(err)
			continue
		}
		res.Wall = append(res.Wall, tm.wall)
		res.CPU = append(res.CPU, tm.cpu)
		res.Peak = max(res.Peak, peak)
	}
	return res
}

// procCPU returns the CPU seconds process pid has used, from
// /proc/<pid>/stat (utime + stime in clock ticks of 1/100 s on Linux).
func procCPU(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields count from the
	// closing parenthesis.
	_, rest, ok := strings.Cut(string(data), ") ")
	fields := strings.Fields(rest)
	if !ok || len(fields) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: unexpected format", pid)
	}
	utime, err1 := strconv.ParseFloat(fields[11], 64)
	stime, err2 := strconv.ParseFloat(fields[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: bad cpu fields", pid)
	}
	return (utime + stime) / 100, nil
}

// procRSSPeak returns the peak resident set (VmHWM) of pid in bytes.
func procRSSPeak(pid int) (int64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("/proc/%d/status: %w", pid, err)
			}
			return kb << 10, nil
		}
	}
	return 0, fmt.Errorf("/proc/%d/status: no VmHWM", pid)
}
