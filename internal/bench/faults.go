package bench

// The fault-injection campaign behind `kbench -faults`: not a paper artifact
// but a robustness demonstration on the same harness. A seeded vfs.FaultFS
// injects transient spill faults (EIO reads/writes, short writes) at a fixed
// per-operation probability while motif counting (4-motif; 3-motif under
// -quick) runs across the three storage regimes; the campaign reports the retry counter and whether the
// counts stayed identical to the fault-free run. A second table shows the
// hard-fault contract: bit-flipped spill reads fail typed as ErrSpillCorrupt,
// a full device as ErrNoSpace.

import (
	"errors"
	"fmt"

	"kaleido/internal/apps"
	"kaleido/internal/memtrack"
	"kaleido/internal/run"
	"kaleido/internal/storage"
	"kaleido/internal/storage/vfs"
)

// faultRegimes is the storage matrix of the campaign: all-memory (no spill
// I/O to fault), hybrid (parts split between RAM and disk), all-disk.
var faultRegimes = []struct {
	name   string
	budget int64
}{
	{"mem", 0},
	{"hybrid", 32 << 10},
	{"disk", 1},
}

func faults(cfg RunConfig) ([]Result, error) {
	p := cfg.FaultP
	if p <= 0 {
		p = 0.01
	}
	seed := cfg.FaultSeed
	if seed == 0 {
		seed = 42
	}
	g, err := loadDataset("citeseer", cfg)
	if err != nil {
		return nil, err
	}
	k := 4
	if cfg.Quick {
		k = 3
	}
	want, err := apps.MotifCount(bgCtx, g, k, &run.Env{Threads: cfg.Threads})
	if err != nil {
		return nil, err
	}

	transient := Result{
		ID:     "faults",
		Title:  fmt.Sprintf("%d-Motif/citeseer under seeded transient spill faults (p=%.3g per class, seed %d)", k, p, seed),
		Header: []string{"Regime", "clean(s)", "faulted(s)", "retries", "injected", "identical"},
	}
	for _, reg := range faultRegimes {
		clean := timed(func(tr *memtrack.Tracker) error {
			_, err := apps.MotifCount(bgCtx, g, k, &run.Env{
				Threads: cfg.Threads, MemoryBudget: reg.budget, SpillDir: cfg.SpillDir, Tracker: tr,
			})
			return err
		})
		ff := vfs.NewFaultFS(nil, vfs.Fault{Seed: seed, ReadErrP: p, WriteErrP: p, ShortWriteP: p})
		var got []apps.PatternCount
		var retries int64
		faulted := timed(func(tr *memtrack.Tracker) error {
			var err error
			got, err = apps.MotifCount(bgCtx, g, k, &run.Env{
				Threads: cfg.Threads, MemoryBudget: reg.budget, SpillDir: cfg.SpillDir, FS: ff, Tracker: tr,
			})
			retries = tr.IORetries()
			return err
		})
		st := ff.Stats()
		transient.Rows = append(transient.Rows, []string{
			reg.name, clean.timeCell(), faulted.timeCell(),
			fmt.Sprint(retries),
			fmt.Sprint(st.ReadErrs + st.WriteErrs + st.ShortWrites),
			motifAgreeCell(got, want, faulted.skipped),
		})
	}
	transient.Notes = append(transient.Notes,
		"identical = the faulted run's motif counts match the fault-free run exactly",
		"injected = EIO reads + EIO writes + short writes drawn by the seeded schedule; retries counts backoff sleeps that absorbed them")

	hard := Result{
		ID:     "faults-hard",
		Title:  "hard-fault contract — typed failure, no wrong answers (all-disk regime)",
		Header: []string{"Fault", "want", "errors.Is", "error"},
	}
	for _, h := range []struct {
		name     string
		schedule vfs.Fault
		sentinel error
		wantName string
	}{
		{"bit-flip reads", vfs.Fault{Seed: seed, BitFlipP: 1}, storage.ErrSpillCorrupt, "ErrSpillCorrupt"},
		{"device full", vfs.Fault{Seed: seed, WriteCap: 4 << 10}, storage.ErrNoSpace, "ErrNoSpace"},
	} {
		ff := vfs.NewFaultFS(nil, h.schedule)
		_, err := apps.MotifCount(bgCtx, g, k, &run.Env{
			Threads: cfg.Threads, MemoryBudget: 1, SpillDir: cfg.SpillDir, FS: ff,
		})
		hard.Rows = append(hard.Rows, []string{
			h.name, h.wantName, fmt.Sprint(errors.Is(err, h.sentinel)), truncateErr(err),
		})
	}
	hard.Notes = append(hard.Notes,
		"corruption is never retried and carries part/block coordinates; ENOSPC is terminal — the governor stops spilling and the run drains cleanly")
	return []Result{transient, hard}, nil
}

func motifAgreeCell(got, want []apps.PatternCount, skipped string) string {
	if skipped != "" {
		return "-"
	}
	if len(got) != len(want) {
		return "no"
	}
	for i := range got {
		if got[i].Count != want[i].Count || got[i].Pattern.Encode() != want[i].Pattern.Encode() {
			return "no"
		}
	}
	return "yes"
}

func truncateErr(err error) string {
	if err == nil {
		return "<nil>"
	}
	s := err.Error()
	if len(s) > 72 {
		s = s[:69] + "..."
	}
	return s
}
