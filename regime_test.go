package kaleido

import (
	"fmt"
	"sort"
	"sync"
	"testing"
)

// minerEmbeddings expands a vertex-induced Miner to depth 3 and returns its
// embeddings (original ids, in walk order within an embedding) sorted, with
// the Miner's spilled part count and level placement.
func minerEmbeddings(t *testing.T, newMiner func() (*Miner, error)) (embs []string, spilled int, levels []LevelStat) {
	t.Helper()
	m, err := newMiner()
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for i := 0; i < 2; i++ {
		if err := m.Expand(bgCtx, nil); err != nil {
			t.Fatal(err)
		}
	}
	var mu sync.Mutex
	if err := m.ForEach(bgCtx, func(_ int, emb []uint32) error {
		s := fmt.Sprint(emb)
		mu.Lock()
		embs = append(embs, s)
		mu.Unlock()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	sort.Strings(embs)
	return embs, m.SpilledParts(), m.LevelStats()
}

// TestRegimeIdentity pins that the storage regime is invisible in results:
// the four applications and a Miner's stored embeddings are identical with
// no budget, with a budget nothing comes near (64 × the level bytes) and
// with a budget nothing fits (1 byte), at 1, 2 and 4 threads — and that the two regimes with room report no part spilled.
// Without a budget that includes an Engine's Miner, whose tracker is
// arbiter-backed rather than absent.
func TestRegimeIdentity(t *testing.T) {
	g, err := Synthetic(300, 1200, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	ref := Config{Threads: 1}
	tcRef, err := g.Triangles(bgCtx, ref)
	if err != nil {
		t.Fatal(err)
	}
	cqRef, err := g.Cliques(bgCtx, 4, ref)
	if err != nil {
		t.Fatal(err)
	}
	moRef, err := g.Motifs(bgCtx, 4, ref)
	if err != nil {
		t.Fatal(err)
	}
	fsRef, err := g.FSM(bgCtx, 3, 30, ref)
	if err != nil {
		t.Fatal(err)
	}
	if tcRef == 0 || cqRef == 0 || len(moRef) == 0 || len(fsRef) == 0 {
		t.Fatalf("degenerate reference: %d triangles, %d cliques, %d motifs, %d frequent", tcRef, cqRef, len(moRef), len(fsRef))
	}
	embRef, _, levels := minerEmbeddings(t, func() (*Miner, error) { return g.NewMiner(bgCtx, VertexInduced, ref) })
	var levelBytes int64
	for _, l := range levels {
		levelBytes += l.ResidentBytes
	}

	regimes := []struct {
		name   string
		budget int64
		roomy  bool // nothing may spill
	}{
		{"unbudgeted", 0, true},
		{"huge", 64 * levelBytes, true},
		{"disk", 1, false},
	}
	for _, reg := range regimes {
		for _, threads := range []int{1, 2, 4} {
			name := fmt.Sprintf("%s/threads=%d", reg.name, threads)
			var st Stats
			cfg := Config{Threads: threads, MemoryBudget: reg.budget, Stats: &st}
			if reg.budget > 0 {
				cfg.SpillDir = t.TempDir()
			}
			placed := func(app string) {
				t.Helper()
				if reg.roomy && st.SpilledParts != 0 {
					t.Fatalf("%s %s: %d parts spilled", name, app, st.SpilledParts)
				}
			}
			tc, err := g.Triangles(bgCtx, cfg)
			if err != nil || tc != tcRef {
				t.Fatalf("%s: triangles %d (%v), want %d", name, tc, err, tcRef)
			}
			placed("triangles")
			cq, err := g.Cliques(bgCtx, 4, cfg)
			if err != nil || cq != cqRef {
				t.Fatalf("%s: 4-cliques %d (%v), want %d", name, cq, err, cqRef)
			}
			placed("cliques")
			mo, err := g.Motifs(bgCtx, 4, cfg)
			if err != nil {
				t.Fatal(err)
			}
			samePublicCounts(t, name+" motifs", mo, moRef)
			placed("motifs")
			fs, err := g.FSM(bgCtx, 3, 30, cfg)
			if err != nil {
				t.Fatal(err)
			}
			samePublicCounts(t, name+" fsm", fs, fsRef)
			placed("fsm")
			cfg.Stats = nil
			miners := map[string]func() (*Miner, error){
				"graph": func() (*Miner, error) { return g.NewMiner(bgCtx, VertexInduced, cfg) },
				"engine": func() (*Miner, error) {
					eng := &Engine{MemoryBudget: cfg.MemoryBudget, SpillDir: cfg.SpillDir, Threads: threads}
					return eng.NewMiner(bgCtx, g, VertexInduced, Config{})
				},
			}
			for owner, newMiner := range miners {
				embs, spilled, levels := minerEmbeddings(t, newMiner)
				if len(embs) != len(embRef) {
					t.Fatalf("%s %s miner: %d embeddings, want %d", name, owner, len(embs), len(embRef))
				}
				for i := range embs {
					if embs[i] != embRef[i] {
						t.Fatalf("%s %s miner: embedding %d is %s, want %s", name, owner, i, embs[i], embRef[i])
					}
				}
				if reg.roomy && spilled != 0 {
					t.Fatalf("%s %s miner: %d parts spilled", name, owner, spilled)
				}
				for l, ls := range levels[1:] {
					if reg.roomy && (ls.DiskParts != 0 || ls.MemParts == 0) {
						t.Fatalf("%s %s miner: level %d placed %+v", name, owner, l+2, ls)
					}
					if !reg.roomy && ls.MemParts != 0 {
						t.Fatalf("%s %s miner: level %d kept %d parts in memory under a 1-byte budget", name, owner, l+2, ls.MemParts)
					}
				}
			}
		}
	}
}
