package kaleido

import (
	"reflect"
	"testing"
)

// TestConfigReachesEnv keeps the configuration threading from rotting: every
// Config field, set to a non-zero value, must change the run.Env that
// Config.env builds — except the fields listed here: Stats, which the run
// fills rather than reads, and the deprecated Shards, which nothing reads. A
// field added to Config later and not mapped in Config.env fails here instead
// of being a silent no-op.
func TestConfigReachesEnv(t *testing.T) {
	notOnEnv := map[string]bool{"Shards": true, "Stats": true}
	base := Config{SpillDir: "spill"} // so that a MemoryBudget validates
	want, err := base.env(nil)
	if err != nil {
		t.Fatal(err)
	}
	typ := reflect.TypeOf(base)
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		cfg := base
		switch f := reflect.ValueOf(&cfg).Elem().Field(i); f.Kind() {
		case reflect.Int, reflect.Int64:
			f.SetInt(1)
		case reflect.String:
			f.SetString("elsewhere")
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Pointer:
			f.Set(reflect.New(f.Type().Elem()))
		default:
			t.Fatalf("Config.%s: kind %s not handled by this test", name, f.Kind())
		}
		got, err := cfg.env(nil)
		if err != nil {
			t.Fatalf("Config.%s set: %v", name, err)
		}
		if reached := !reflect.DeepEqual(got, want); reached == notOnEnv[name] {
			t.Errorf("Config.%s: reaches the Env = %v, want %v — map it in Config.env (or list it here with the reason)",
				name, reached, !notOnEnv[name])
		}
	}
}

// runPathRegimes are the three storage regimes of one job over g: all in
// memory, a budget between the depth-2 and depth-3 footprints (half memory,
// half disk), and a 1-byte budget (all disk). One thread, so that placement —
// and with it every Stats field — is deterministic.
func runPathRegimes(t *testing.T, g *Graph) map[string]Config {
	t.Helper()
	ref, err := g.NewMiner(bgCtx, VertexInduced, Config{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	var after [2]int64
	for i := range after {
		if err := ref.Expand(bgCtx, nil); err != nil {
			t.Fatal(err)
		}
		after[i] = ref.Bytes()
	}
	return map[string]Config{
		"mem":    {Threads: 1},
		"hybrid": {Threads: 1, MemoryBudget: after[0] + (after[1]-after[0])/2},
		"disk":   {Threads: 1, MemoryBudget: 1},
	}
}

// callApp runs job through the public application method it describes — the
// Graph method, or the Engine method when en is non-nil — and returns the
// method's result: a count, or the patterns.
func callApp(en *Engine, job Job) (any, error) {
	g, k, cfg := job.Graph, job.K, job.Config
	switch {
	case job.App == AppTriangles && en == nil:
		return g.Triangles(bgCtx, cfg)
	case job.App == AppTriangles:
		return en.Triangles(bgCtx, g, cfg)
	case job.App == AppCliques && en == nil:
		return g.Cliques(bgCtx, k, cfg)
	case job.App == AppCliques:
		return en.Cliques(bgCtx, g, k, cfg)
	case job.App == AppMotifs && en == nil:
		return g.Motifs(bgCtx, k, cfg)
	case job.App == AppMotifs:
		return en.Motifs(bgCtx, g, k, cfg)
	case en == nil:
		return g.FSM(bgCtx, k, job.Support, cfg)
	}
	return en.FSM(bgCtx, g, k, job.Support, cfg)
}

// TestRunPathsAgree pins the one run path: for each application and storage
// regime, the Graph method, the Engine method and Engine.Run are the same run
// — identical results and identical Stats, per-level placement included.
func TestRunPathsAgree(t *testing.T) {
	g, err := Synthetic(150, 600, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	jobs := map[string]Job{
		"triangles": {Graph: g, App: AppTriangles},
		"cliques":   {Graph: g, App: AppCliques, K: 4},
		"motifs":    {Graph: g, App: AppMotifs, K: 4},
		"fsm":       {Graph: g, App: AppFSM, K: 4, Support: 10},
	}
	for regime, cfg := range runPathRegimes(t, g) {
		for name, job := range jobs {
			// A fresh Engine carrying the regime's budget per path, so that no
			// path sees another's resident bytes.
			engine := func() *Engine {
				en := &Engine{MemoryBudget: cfg.MemoryBudget}
				if cfg.MemoryBudget > 0 {
					en.SpillDir = t.TempDir()
				}
				return en
			}
			paths := map[string]func(Job) (any, error){
				"Graph":  func(j Job) (any, error) { return callApp(nil, j) },
				"Engine": func(j Job) (any, error) { return callApp(engine(), j) },
				"Engine.Run": func(j Job) (any, error) {
					res, err := engine().Run(bgCtx, j)
					if err != nil {
						return nil, err
					}
					if !reflect.DeepEqual(res.Stats, *j.Config.Stats) {
						t.Errorf("%s/%s: Result.Stats and Config.Stats differ", regime, name)
					}
					if res.Patterns != nil {
						return res.Patterns, nil
					}
					return res.Count, nil
				},
			}
			var want any
			var wantStats Stats
			for path, run := range paths {
				var stats Stats
				job.Config = cfg
				job.Config.Stats = &stats
				if cfg.MemoryBudget > 0 {
					job.Config.SpillDir = t.TempDir()
				}
				got, err := run(job)
				if err != nil {
					t.Fatalf("%s/%s via %s: %v", regime, name, path, err)
				}
				if len(stats.Levels) == 0 || stats.PeakBytes == 0 {
					t.Errorf("%s/%s via %s: Stats not filled: %+v", regime, name, path, stats)
				}
				switch {
				case regime != "disk":
				case job.App == AppTriangles:
					// Only the base level is stored, one raw part that
					// never spills.
					if len(stats.Levels) != 1 || stats.SpilledParts != 0 {
						t.Errorf("%s/%s via %s: %d stored levels, %d spilled parts; want the base level alone, unspilled",
							regime, name, path, len(stats.Levels), stats.SpilledParts)
					}
				case stats.SpilledParts == 0:
					t.Errorf("%s/%s via %s: 1-byte budget spilled nothing", regime, name, path)
				}
				if want == nil {
					want, wantStats = got, stats
				} else if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(stats, wantStats) {
					t.Errorf("%s/%s via %s disagrees with the other paths:\n got %v %+v\nwant %v %+v",
						regime, name, path, got, stats, want, wantStats)
				}
			}
		}
	}
}

// TestConfigShardsConformance pins that the deprecated Config.Shards is
// inert: two shards give the same result and the same full Stats, Levels
// included, as leaving it unset, for every application and storage regime.
func TestConfigShardsConformance(t *testing.T) {
	checkShardsInert(t, 2)
}

// TestConfigShardsValidation pins that nothing validates Config.Shards any
// more: a negative count, which used to be refused, runs and matches a run
// with the field unset.
func TestConfigShardsValidation(t *testing.T) {
	checkShardsInert(t, -1)
}

// checkShardsInert runs every application in every regime with Shards unset
// and with Shards = shards, and requires identical results and Stats.
func checkShardsInert(t *testing.T, shards int) {
	t.Helper()
	g, err := Synthetic(150, 600, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	jobs := map[string]Job{
		"triangles": {Graph: g, App: AppTriangles},
		"cliques":   {Graph: g, App: AppCliques, K: 4},
		"motifs":    {Graph: g, App: AppMotifs, K: 4},
		"fsm":       {Graph: g, App: AppFSM, K: 4, Support: 10},
	}
	for regime, cfg := range runPathRegimes(t, g) {
		for name, job := range jobs {
			var want any
			var wantStats Stats
			for _, n := range []int{0, shards} {
				var stats Stats
				job.Config = cfg
				job.Config.Shards, job.Config.Stats = n, &stats
				if cfg.MemoryBudget > 0 {
					job.Config.SpillDir = t.TempDir()
				}
				got, err := callApp(nil, job)
				if err != nil {
					t.Fatalf("%s/%s Shards=%d: %v", regime, name, n, err)
				}
				if n == 0 {
					if len(stats.Levels) == 0 {
						t.Fatalf("%s/%s: Stats.Levels empty", regime, name)
					}
					want, wantStats = got, stats
				} else if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(stats, wantStats) {
					t.Errorf("%s/%s Shards=%d differs from Shards unset:\n got %v %+v\nwant %v %+v",
						regime, name, n, got, stats, want, wantStats)
				}
			}
		}
	}
}

// TestEngineRun drives the explicit job API: Engine.Run returns what the
// application methods return — patterns, counts and a filled Stats — under
// the engine's shared budget, and refuses a job without a graph or with an
// unknown application.
func TestEngineRun(t *testing.T) {
	g, err := Synthetic(400, 1600, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	moRef, err := g.Motifs(bgCtx, 4, Config{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	var moTotal uint64
	for _, pc := range moRef {
		moTotal += pc.Count
	}
	fsRef, err := g.FSM(bgCtx, 3, 40, Config{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	tcRef, err := g.Triangles(bgCtx, Config{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}

	eng := &Engine{MemoryBudget: 256 << 10, SpillDir: t.TempDir(), Threads: 2}
	res, err := eng.Run(bgCtx, Job{Graph: g, App: AppMotifs, K: 4})
	if err != nil {
		t.Fatal(err)
	}
	samePublicCounts(t, "engine motifs", res.Patterns, moRef)
	if res.Count != moTotal {
		t.Fatalf("motif Count = %d, want %d", res.Count, moTotal)
	}
	if res.Stats.PeakBytes == 0 || len(res.Stats.Levels) == 0 {
		t.Fatalf("Stats not filled: %+v", res.Stats)
	}
	res, err = eng.Run(bgCtx, Job{Graph: g, App: AppFSM, K: 3, Support: 40})
	if err != nil {
		t.Fatal(err)
	}
	samePublicCounts(t, "engine fsm", res.Patterns, fsRef)
	if res.Count == 0 {
		t.Fatal("FSM fused aggregation reported zero final-level embeddings")
	}
	if res, err = eng.Run(bgCtx, Job{Graph: g, App: AppTriangles}); err != nil {
		t.Fatal(err)
	}
	if res.Count != tcRef {
		t.Fatalf("engine triangles = %d, want %d", res.Count, tcRef)
	}

	if _, err := eng.Run(bgCtx, Job{App: AppTriangles}); err == nil {
		t.Fatal("job without a graph accepted")
	}
	if _, err := eng.Run(bgCtx, Job{Graph: g, App: App(99)}); err == nil {
		t.Fatal("unknown app accepted")
	}
}

// TestMinerFillsStats: a custom Miner reports through Config.Stats like an
// application run does — peak, I/O, spill counters and the per-level
// placement — at Close, budgeted or not, standalone or engine-vended.
func TestMinerFillsStats(t *testing.T) {
	g, err := Synthetic(300, 1200, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	for name, budget := range map[string]int64{"unbudgeted": 0, "budgeted": 1} {
		for _, vend := range []string{"Graph", "Engine"} {
			var stats Stats
			cfg := Config{Threads: 2, Stats: &stats}
			var m *Miner
			if vend == "Graph" {
				if cfg.MemoryBudget = budget; budget > 0 {
					cfg.SpillDir = t.TempDir()
				}
				m, err = g.NewMiner(bgCtx, VertexInduced, cfg)
			} else {
				en := &Engine{MemoryBudget: budget}
				if budget > 0 {
					en.SpillDir = t.TempDir()
				}
				m, err = en.NewMiner(bgCtx, g, VertexInduced, cfg)
			}
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 2; i++ {
				if err := m.Expand(bgCtx, nil); err != nil {
					t.Fatal(err)
				}
			}
			if err := m.ForEach(bgCtx, func(int, []uint32) error { return nil }); err != nil {
				t.Fatal(err)
			}
			live := m.LevelStats()
			spilledParts, spilledBytes := m.SpilledParts(), m.SpilledBytes()
			if stats.PeakBytes != 0 {
				t.Fatalf("%s/%s: Stats filled before Close", name, vend)
			}
			if err := m.Close(); err != nil {
				t.Fatal(err)
			}
			if stats.PeakBytes == 0 || !reflect.DeepEqual(stats.Levels, live) {
				t.Errorf("%s/%s: peak %d, levels %+v, want the live placement %+v", name, vend, stats.PeakBytes, stats.Levels, live)
			}
			if stats.SpilledParts != spilledParts || stats.SpilledBytes != spilledBytes {
				t.Errorf("%s/%s: spill counters %d parts / %d bytes, Miner reported %d / %d",
					name, vend, stats.SpilledParts, stats.SpilledBytes, spilledParts, spilledBytes)
			}
			if budget > 0 && (stats.SpilledLevels == 0 || stats.WriteBytes == 0 || stats.ReadBytes == 0) {
				t.Errorf("%s/%s: all-disk Miner reported no spill I/O: %+v", name, vend, stats)
			}
			if budget == 0 && (stats.SpilledParts != 0 || stats.WriteBytes != 0) {
				t.Errorf("%s/%s: in-memory Miner reported spill I/O: %+v", name, vend, stats)
			}
			filled := stats
			if err := m.Close(); err != nil || !reflect.DeepEqual(stats, filled) {
				t.Errorf("%s/%s: second Close changed the report (err %v)", name, vend, err)
			}
		}
	}
}
