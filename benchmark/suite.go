package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// suite runs workloads in child processes of this binary, one child per
// run, nothing else running beside it.
type suite struct {
	seed    int64
	seconds float64
	scale   int
	out     string
	daemon  string
}

// child runs one workload once and returns its result line.
func (s *suite) child(workload string, seed int64, trace int) (*runDoc, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self,
		"--workload", workload,
		"--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(s.seconds, 'g', -1, 64),
		"--trace", strconv.Itoa(trace),
		"--scale", strconv.Itoa(s.scale),
		"--out", s.out,
		"--kaleidod", s.daemon)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	// A signal to the suite is passed on, so the child cleans up after
	// itself (daemon, scratch directory) before both exit.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		select {
		case got := <-sig:
			_ = cmd.Process.Signal(got) // the child may already have exited
		case <-done:
		}
	}()
	err = cmd.Wait()
	close(done)
	signal.Stop(sig)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", workload, err)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var doc runDoc
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &doc); err != nil {
		return nil, fmt.Errorf("%s: result line: %w", workload, err)
	}
	return &doc, nil
}

// runAll runs both passes of every workload and prints every metric by
// name with its unit.
func (s *suite) runAll() error {
	failed := 0
	for _, w := range workloads {
		for trace := 0; trace <= 1; trace++ {
			doc, err := s.child(w.Name, s.seed, trace)
			if err != nil {
				return err
			}
			failed += doc.Failed
			fmt.Printf("%s trace=%d correct=%v attempted=%d failed=%d\n", w.Name, trace, doc.Correct, doc.Attempted, doc.Failed)
			for _, name := range sortedKeys(doc.Metrics) {
				m := doc.Metrics[name]
				fmt.Printf("  %-36s %16.6g %s\n", name, m.Value, m.Unit)
			}
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d jobs failed", failed)
	}
	return nil
}

// quartileSpread is the distance between the first and third quartile as a
// share of the median, with the quartiles of Python's
// statistics.quantiles(values, n=4) (the acceptance rule of this repo's
// driver uses that function).
func quartileSpread(values []float64) float64 {
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	n := len(v)
	if n < 2 {
		return 0
	}
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (v[j-1]*(4-delta) + v[j]*delta) / 4
	}
	return (cut(3) - cut(1)) / cut(2)
}

// agree runs the untraced suite twice back to back, runs seeds per workload
// and set, and prints per metric and workload both medians, how much worse
// the second is, both quartile spreads and the bound. It fails if a second
// median is worse than the first by more than the bound, or if a spread
// (set-up time excepted: it is reported, not bounded) exceeds it.
func (s *suite) agree(runs int) error {
	type key struct{ workload, metric string }
	var sets [2]map[key][]float64
	for set := range sets {
		sets[set] = map[key][]float64{}
		for _, w := range workloads {
			for i := 0; i < runs; i++ {
				doc, err := s.child(w.Name, s.seed+int64(i), 0)
				if err != nil {
					return err
				}
				if !doc.Correct {
					return fmt.Errorf("%s seed %d: %d of %d jobs failed", w.Name, s.seed+int64(i), doc.Failed, doc.Attempted)
				}
				for name, m := range doc.Metrics {
					k := key{w.Name, name}
					sets[set][k] = append(sets[set][k], m.Value)
				}
			}
		}
	}
	bad := 0
	fmt.Printf("%-14s %-15s %14s %14s %8s %8s %8s %6s\n", "workload", "metric", "median1", "median2", "worse", "spread1", "spread2", "bound")
	for _, w := range workloads {
		for _, def := range endToEnd {
			k := key{w.Name, def.Name}
			m1, m2 := median(sets[0][k]), median(sets[1][k])
			worse := (m2 - m1) / m1
			if def.Better == "higher" {
				worse = -worse
			}
			s1, s2 := quartileSpread(sets[0][k]), quartileSpread(sets[1][k])
			verdict := ""
			if worse > *def.Bound || (def.Name != "setup_s" && max(s1, s2) > *def.Bound) {
				verdict = "  EXCEEDS"
				bad++
			}
			fmt.Printf("%-14s %-15s %14.6g %14.6g %+7.2f%% %7.2f%% %7.2f%% %5.3g%%%s\n",
				w.Name, def.Name, m1, m2, worse*100, s1*100, s2*100, *def.Bound*100, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d metric x workload pairs exceed their bound", bad)
	}
	return nil
}
