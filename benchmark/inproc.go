package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"kaleido"
)

// env is what every workload of one benchmark process shares.
type env struct {
	threads  int    // T = min(nproc, 4) worker threads per job
	dir      string // scratch directory: spill dirs, edge lists, daemon log
	kaleidod string // path of the built daemon binary (served-mix)
	seed     int64
}

// tempDir makes a fresh directory under the scratch directory.
func (e *env) tempDir(prefix string) (string, error) {
	return os.MkdirTemp(e.dir, prefix+"-")
}

var ctx = context.Background()

// timing is the cost of one timed region.
type timing struct{ wall, cpu float64 }

// timed runs f after a collection, so that the previous job's garbage is
// collected outside the timed region.
func timed(f func() error) (timing, error) {
	runtime.GC()
	cpu0, t0 := selfCPU(), time.Now()
	err := f()
	return timing{wall: time.Since(t0).Seconds(), cpu: selfCPU() - cpu0}, err
}

// counter is a per-worker count padded to its own cache line.
type counter struct {
	n uint64
	_ [56]byte
}

func total(cs []counter) uint64 {
	var n uint64
	for i := range cs {
		n += cs[i].n
	}
	return n
}

// buildGraph generates the seeded input and feeds it through the public
// builder, recording graph.build_s.
func buildGraph(p genParams, seed int64, tr *tracer) (*edgeList, *kaleido.Graph, error) {
	el := generate(p, seed)
	var g *kaleido.Graph
	s, err := tr.do(0, 0, "graph.build", func(int) error {
		var err error
		g, err = el.build()
		return err
	})
	tr.add("graph.build_s", s)
	return el, g, err
}

// addSpill records the part-transition and spill-size counters of one job,
// which app jobs report through Stats and Miner jobs through getters.
func (t *tracer) addSpill(spilled, compressed, promoted int, logical, physical int64) {
	t.add("storage.spilled_parts", float64(spilled))
	t.add("storage.compressed_parts", float64(compressed))
	t.add("storage.promoted_parts", float64(promoted))
	t.add("storage.spill_bytes_logical", float64(logical))
	t.add("storage.spill_bytes_physical", float64(physical))
	if logical > 0 {
		t.add("storage.phys_per_logical", float64(physical)/float64(logical))
	}
}

// ---------------------------------------------------------------- app jobs

// appRunner runs the one-call application jobs: Motifs, Cliques, FSM.
type appRunner struct {
	w    *workload
	e    *env
	el   *edgeList
	g    *kaleido.Graph
	want counts
}

func openApp(w *workload, e *env, want counts, tr *tracer) (runner, error) {
	el, g, err := buildGraph(w.Graph, e.seed, tr)
	if err != nil {
		return nil, err
	}
	return &appRunner{w: w, e: e, el: el, g: g, want: want}, nil
}

func (r *appRunner) close() error { return nil }

// patternShape names a 4-vertex pattern the way the ESU oracle does.
func patternShape(p kaleido.Pattern) string {
	deg := make([]int, p.K)
	maxDeg := 0
	for _, e := range p.Edges {
		deg[e[0]]++
		deg[e[1]]++
		maxDeg = max(maxDeg, deg[e[0]], deg[e[1]])
	}
	return shape4(len(p.Edges), maxDeg)
}

// call makes the workload's one public call. What it returned is named
// afterwards, outside the timed region.
func (r *appRunner) call(cfg kaleido.Config) (func() counts, error) {
	switch r.w.Kind {
	case kindClique:
		n, err := r.g.Cliques(ctx, r.w.K, cfg)
		return func() counts { return counts{"cliques": n} }, err
	case kindMotif:
		pcs, err := r.g.Motifs(ctx, r.w.K, cfg)
		return func() counts { return motifCounts(pcs) }, err
	default:
		pcs, err := r.g.FSM(ctx, r.w.K, r.w.Support, cfg)
		return func() counts { return fsmCounts(pcs) }, err
	}
}

// motifCounts names a Motifs result by shape, the way the ESU oracle does.
func motifCounts(pcs []kaleido.PatternCount) counts {
	got := counts{"patterns": uint64(len(pcs))}
	for _, pc := range pcs {
		got[patternShape(pc.Pattern)] += pc.Count
		got["l4"] += pc.Count
	}
	return got
}

// fsmCounts names an FSM result: every frequent pattern with its support
// and embedding count, so two regimes must agree pattern by pattern.
func fsmCounts(pcs []kaleido.PatternCount) counts {
	got := counts{"patterns": uint64(len(pcs))}
	for _, pc := range pcs {
		name := canonical(pc.Pattern)
		got["count "+name] = pc.Count
		got["support "+name] = pc.Support
		got["embeddings"] += pc.Count
	}
	return got
}

// canonical names a pattern independently of its vertex order: the smallest
// rendering over all vertex permutations. Pattern.String is not canonical
// (which embedding represents a class depends on the schedule).
func canonical(p kaleido.Pattern) string {
	adj := make([][]bool, p.K)
	for i := range adj {
		adj[i] = make([]bool, p.K)
	}
	for _, e := range p.Edges {
		adj[e[0]][e[1]], adj[e[1]][e[0]] = true, true
	}
	perm := make([]int, p.K)
	for i := range perm {
		perm[i] = i
	}
	best := ""
	var permute func(n int)
	permute = func(n int) {
		if n == p.K {
			s := ""
			for _, v := range perm {
				s += fmt.Sprintf("%d,", p.Labels[v])
			}
			for i := 0; i < p.K; i++ {
				for j := i + 1; j < p.K; j++ {
					if adj[perm[i]][perm[j]] {
						s += fmt.Sprintf(" %d-%d", i, j)
					}
				}
			}
			if best == "" || s < best {
				best = s
			}
			return
		}
		for i := n; i < p.K; i++ {
			perm[n], perm[i] = perm[i], perm[n]
			permute(n + 1)
			perm[n], perm[i] = perm[i], perm[n]
		}
	}
	permute(0)
	return best
}

// once runs one job: spill dir made before and removed after the timed
// region, counts checked. mod adjusts the job's Config for the probes.
func (r *appRunner) once(tr *tracer, name string, mod func(*kaleido.Config)) (timing, kaleido.Stats, counts, error) {
	var st kaleido.Stats
	cfg := kaleido.Config{Threads: r.e.threads, MemoryBudget: r.w.Budget, Stats: &st}
	if mod != nil {
		mod(&cfg)
	}
	if cfg.MemoryBudget > 0 {
		dir, err := r.e.tempDir("spill")
		if err != nil {
			return timing{}, st, nil, err
		}
		defer os.RemoveAll(dir)
		cfg.SpillDir = dir
	}
	var named func() counts
	tm, err := timed(func() error {
		_, err := tr.do(tr.newJob(), 0, name, func(int) error {
			var err error
			named, err = r.call(cfg)
			return err
		})
		return err
	})
	if err != nil {
		return tm, st, nil, err
	}
	got := named()
	if d := r.want.diff(got); d != "" {
		err = fmt.Errorf("%s: wrong result: %s", r.w.Name, d)
	}
	return tm, st, got, err
}

func (r *appRunner) measure(d time.Duration, tr *tracer) result {
	return serialLoop(d, func() (timing, int64, error) {
		tm, st, _, err := r.once(tr, "job", nil)
		return tm, st.PeakBytes, err
	})
}

// probe: the same result through a Miner replay (NewMiner, Expand to depth
// K-1, terminal sink, Close) gives the explore/engine share; the job minus
// the replay is what the application layer (iso or mni) added.
func (r *appRunner) probe(tr *tracer) (bool, error) { return true, r.probeOnce(tr) }

func (r *appRunner) probeOnce(tr *tracer) error {
	base, st, got, err := r.once(tr, "probe.job", nil)
	if err != nil {
		return err
	}
	tr.add("storage.read_bytes", float64(st.ReadBytes))
	tr.add("storage.write_bytes", float64(st.WriteBytes))
	tr.add("storage.io_retries", float64(st.IORetries))
	tr.addSpill(st.SpilledParts, st.CompressedParts, st.PromotedParts, st.SpilledBytes, st.SpilledBytesPhysical)

	t1, _, _, err := r.once(tr, "probe.job_t1", func(c *kaleido.Config) { c.Threads = 1 })
	if err != nil {
		return err
	}
	tr.add("explore.t1_over_tN", t1.wall/base.wall)

	replay, err := r.replay(tr, got)
	if err != nil {
		return err
	}
	switch r.w.Kind {
	case kindMotif:
		mapper := base.wall - replay
		tr.add("iso.mapper_s", mapper)
		tr.add("iso.ns_per_emb", mapper*1e9/float64(got["l4"]))
		tr.add("iso.patterns", float64(got["patterns"]))
		bliss, _, _, err := r.once(tr, "probe.job_bliss", func(c *kaleido.Config) { c.Iso = kaleido.IsoBliss })
		if err != nil {
			return err
		}
		tr.add("iso.bliss_over_eigen", bliss.wall/base.wall)
	case kindFSM:
		tr.add("mni.aggregate_s", base.wall-replay)
		tr.add("mni.patterns_frequent", float64(got["patterns"]))
	case kindClique:
		sharded, _, _, err := r.once(tr, "probe.job_shards2", func(c *kaleido.Config) { c.Shards = 2 })
		if err != nil {
			return err
		}
		tr.add("engine.shards2_speedup", base.wall/sharded.wall)
		r.probeHasEdge(tr)
	}
	return nil
}

// replay drives a Miner through the job's expansions and returns the wall
// seconds of the whole replay.
func (r *appRunner) replay(tr *tracer, job counts) (float64, error) {
	mode, steps := kaleido.VertexInduced, r.w.K-2
	if r.w.Kind == kindFSM {
		// FSM(k) grows edge-induced embeddings to k-1 edges; the stored
		// levels of the replay are unpruned, FSM's are pruned by support.
		mode = kaleido.EdgeInduced
	}
	cfg := kaleido.Config{Threads: r.e.threads, MemoryBudget: r.w.Budget}
	if cfg.MemoryBudget > 0 {
		dir, err := r.e.tempDir("spill")
		if err != nil {
			return 0, err
		}
		defer os.RemoveAll(dir)
		cfg.SpillDir = dir
	}
	attempts := make([]counter, r.e.threads)
	var filter, last kaleido.EmbeddingFilter
	if r.w.Kind == kindClique {
		// The clique filter through the public surface: a candidate extends
		// a clique when it is adjacent to every vertex of it.
		filter = func(_ int, emb []uint32, cand uint32) bool {
			for _, v := range emb {
				if !r.g.HasEdge(v, cand) {
					return false
				}
			}
			return true
		}
		last = func(w int, emb []uint32, cand uint32) bool {
			attempts[w].n++
			return filter(w, emb, cand)
		}
	}
	jobID := tr.newJob()
	var counted uint64
	var countOnly float64
	whole, err := tr.do(jobID, 0, "replay", func(root int) error {
		var m *kaleido.Miner
		open, err := tr.do(jobID, root, "engine.new_miner", func(int) error {
			var err error
			m, err = r.g.NewMiner(ctx, mode, cfg)
			return err
		})
		if err != nil {
			return err
		}
		defer m.Close() // error paths; Close is idempotent
		var expand float64
		for i := 0; i < steps; i++ {
			s, err := tr.do(jobID, root, "explore.expand", func(int) error { return m.Expand(ctx, filter) })
			if err != nil {
				return err
			}
			expand += s
			tr.add(fmt.Sprintf("explore.embeddings_l%d", i+2), float64(m.Count()))
		}
		if r.w.Kind == kindFSM {
			tr.add("explore.edge_expand_s", expand)
		} else {
			s, err := tr.do(jobID, root, "explore.expand_count", func(int) error {
				var err error
				counted, err = m.ExpandCount(ctx, last)
				return err
			})
			if err != nil {
				return err
			}
			examined := counted
			if last != nil {
				examined = total(attempts)
				tr.add("apps.clique_keep_frac", float64(counted)/float64(examined))
			}
			countOnly = s
			tr.add("explore.expand_count_s", s)
			tr.add("explore.emb_per_s", float64(examined)/s)
			tr.add(fmt.Sprintf("explore.embeddings_l%d", steps+2), float64(counted))
		}
		if r.w.Kind == kindMotif {
			visits := make([]counter, r.e.threads)
			s, err := tr.do(jobID, root, "explore.visit", func(int) error {
				return m.ExpandVisit(ctx, nil, func(w int, _ []uint32, _ uint32) error {
					visits[w].n++
					return nil
				})
			})
			if err != nil {
				return err
			}
			tr.add("explore.visit_s", s)
			if n := total(visits); n != counted {
				return fmt.Errorf("%s: ExpandVisit saw %d embeddings, ExpandCount %d", r.w.Name, n, counted)
			}
		}
		closing, err := tr.do(jobID, root, "engine.close", func(int) error { return m.Close() })
		tr.add("engine.miner_open_close_s", open+closing)
		return err
	})
	if err != nil {
		return 0, err
	}
	// The replay must reproduce the job's result through the other path.
	switch r.w.Kind {
	case kindClique:
		if counted != job["cliques"] {
			return 0, fmt.Errorf("%s: filtered Miner replay counted %d cliques, Cliques %d", r.w.Name, counted, job["cliques"])
		}
	case kindMotif:
		if counted != job["l4"] {
			return 0, fmt.Errorf("%s: Miner replay counted %d embeddings, Motifs %d", r.w.Name, counted, job["l4"])
		}
		// The count-only pass ran beside the visit pass; the job has one.
		whole -= countOnly
	}
	return whole, nil
}

// probeHasEdge times seeded Graph.HasEdge probes, half on edges and half on
// random pairs: the adjacency test the clique filter is made of.
func (r *appRunner) probeHasEdge(tr *tracer) {
	const probes = 1 << 18
	rng := rand.New(rand.NewSource(r.e.seed))
	pairs := make([][2]uint32, probes)
	for i := range pairs {
		if i%2 == 0 {
			pairs[i] = r.el.Edges[rng.Intn(len(r.el.Edges))]
		} else {
			pairs[i] = [2]uint32{uint32(rng.Intn(r.el.N)), uint32(rng.Intn(r.el.N))}
		}
	}
	hits := 0
	s, _ := tr.do(0, 0, "graph.hasedge", func(int) error {
		for _, p := range pairs {
			if r.g.HasEdge(p[0], p[1]) {
				hits++
			}
		}
		return nil
	})
	if hits > 0 {
		tr.add("graph.hasedge_ns", s*1e9/probes)
	}
}

// -------------------------------------------------------------- store jobs

// storeRunner runs the stored-level job in one of the three regimes.
type storeRunner struct {
	w    *workload
	e    *env
	g    *kaleido.Graph
	want counts
}

func openStore(w *workload, e *env, want counts, tr *tracer) (runner, error) {
	_, g, err := buildGraph(w.Graph, e.seed, tr)
	if err != nil {
		return nil, err
	}
	return &storeRunner{w: w, e: e, g: g, want: want}, nil
}

func (r *storeRunner) close() error { return nil }

// storeObs is what one pass over the stored-level job observed.
type storeObs struct {
	peak                          int64
	open, closing                 float64
	count, build, scan            float64 // probes: ExpandCount, last Expand, ForEach
	levels                        []kaleido.LevelStat
	bytes                         int64
	spilled, compressed, promoted int
	spillLogical, spillPhysical   int64
}

// pass runs NewMiner, Expand to depth K and Close on a fresh Engine with the
// given budget. With probes, a count-only expansion runs before the last
// Expand and a no-op scan after it; they are the differential timings and
// make the pass longer than a job.
func (r *storeRunner) pass(tr *tracer, name string, budget int64, threads int, probes bool) (timing, storeObs, error) {
	var obs storeObs
	eng := &kaleido.Engine{MemoryBudget: budget, Threads: threads}
	if budget > 0 {
		dir, err := r.e.tempDir("spill")
		if err != nil {
			return timing{}, obs, err
		}
		defer os.RemoveAll(dir)
		eng.SpillDir = dir
	}
	got := counts{}
	jobID := tr.newJob()
	tm, err := timed(func() error {
		_, err := tr.do(jobID, 0, name, func(root int) error {
			var m *kaleido.Miner
			var err error
			obs.open, err = tr.do(jobID, root, "engine.new_miner", func(int) error {
				var err error
				m, err = eng.NewMiner(ctx, r.g, kaleido.VertexInduced, kaleido.Config{})
				return err
			})
			if err != nil {
				return err
			}
			defer m.Close() // error paths; Close is idempotent
			for depth := 2; depth <= r.w.K; depth++ {
				if probes && depth == r.w.K {
					var n uint64
					obs.count, err = tr.do(jobID, root, "explore.expand_count", func(int) error {
						var err error
						n, err = m.ExpandCount(ctx, nil)
						return err
					})
					if want := r.want[fmt.Sprintf("l%d", depth)]; err == nil && n != want {
						err = fmt.Errorf("%s: ExpandCount at depth %d = %d, want %d", r.w.Name, depth, n, want)
					}
					if err != nil {
						return err
					}
				}
				s, err := tr.do(jobID, root, fmt.Sprintf("explore.expand_l%d", depth), func(int) error { return m.Expand(ctx, nil) })
				if err != nil {
					return err
				}
				obs.build = s
				got[fmt.Sprintf("l%d", depth)] = uint64(m.Count())
			}
			if probes {
				visits := make([]counter, max(threads, 1))
				obs.scan, err = tr.do(jobID, root, "cse.scan", func(int) error {
					return m.ForEach(ctx, func(w int, _ []uint32) error {
						visits[w].n++
						return nil
					})
				})
				if err == nil && total(visits) != uint64(m.Count()) {
					err = fmt.Errorf("%s: ForEach visited %d embeddings of %d", r.w.Name, total(visits), m.Count())
				}
				if err != nil {
					return err
				}
				obs.levels = m.LevelStats()
				obs.bytes = m.Bytes()
				obs.spilled, obs.compressed, obs.promoted = m.SpilledParts(), m.CompressedParts(), m.PromotedParts()
				obs.spillLogical, obs.spillPhysical = m.SpilledBytes(), m.SpilledBytesPhysical()
			}
			obs.closing, err = tr.do(jobID, root, "engine.close", func(int) error { return m.Close() })
			return err
		})
		return err
	})
	obs.peak = eng.PeakBytes()
	if err == nil {
		if d := r.want.diff(got); d != "" {
			err = fmt.Errorf("%s: wrong result: %s", r.w.Name, d)
		}
	}
	return tm, obs, err
}

func (r *storeRunner) measure(d time.Duration, tr *tracer) result {
	return serialLoop(d, func() (timing, int64, error) {
		tm, obs, err := r.pass(tr, "job", r.w.Budget, r.e.threads, false)
		return tm, obs.peak, err
	})
}

// regime is the suffix of the storage.build_*_s metric of this workload.
func (r *storeRunner) regime() string {
	switch {
	case r.w.Budget == 0:
		return "mem"
	case r.w.Budget == 1:
		return "disk"
	}
	return "hybrid"
}

// probe: Expand(3->4) minus ExpandCount(3->4) is the cost of building the
// stored level; the same pass in memory is the baseline that the budgeted
// pass's read and scan times are priced against.
func (r *storeRunner) probe(tr *tracer) (bool, error) { return true, r.probeOnce(tr) }

func (r *storeRunner) probeOnce(tr *tracer) error {
	_, mem, err := r.pass(tr, "probe.mem", 0, r.e.threads, true)
	if err != nil {
		return err
	}
	top := float64(r.want[fmt.Sprintf("l%d", r.w.K)])
	tr.add("explore.expand_count_s", mem.count)
	tr.add("explore.emb_per_s", top/mem.count)
	for depth := 2; depth <= r.w.K; depth++ {
		tr.add(fmt.Sprintf("explore.embeddings_l%d", depth), float64(r.want[fmt.Sprintf("l%d", depth)]))
	}
	tr.add("cse.scan_mem_s", mem.scan)
	tr.add("cse.scan_ns_per_emb", mem.scan*1e9/top)
	tr.add("storage.level_bytes", float64(mem.bytes))

	own := mem
	if r.w.Budget > 0 {
		if _, own, err = r.pass(tr, "probe."+r.regime(), r.w.Budget, r.e.threads, true); err != nil {
			return err
		}
		tr.add("storage.read_disk_s", own.count-mem.count)
		tr.add("storage.scan_disk_s", own.scan-mem.scan)
	}
	tr.add("storage.build_"+r.regime()+"_s", own.build-own.count)
	tr.add("engine.miner_open_close_s", own.open+own.closing)
	tr.addSpill(own.spilled, own.compressed, own.promoted, own.spillLogical, own.spillPhysical)
	// A Miner's spill writes are its spilled parts; reads are not visible
	// through the Miner surface (Stats is filled by the app calls only).
	tr.add("storage.write_bytes", float64(own.spillPhysical))
	var diskParts int
	var resident, residentLogical int64
	for _, ls := range own.levels {
		diskParts += ls.DiskParts
		resident += ls.ResidentBytes
		residentLogical += ls.ResidentBytesLogical
	}
	tr.add("storage.disk_parts", float64(diskParts))
	if resident > 0 {
		tr.add("storage.resident_logical_per_byte", float64(residentLogical)/float64(resident))
	}

	t1, _, err := r.pass(tr, "probe.job_t1", r.w.Budget, 1, false)
	if err != nil {
		return err
	}
	tN, _, err := r.pass(tr, "probe.job", r.w.Budget, r.e.threads, false)
	if err != nil {
		return err
	}
	tr.add("explore.t1_over_tN", t1.wall/tN.wall)
	if r.w.Budget > 0 {
		// The price of the budget: the job over the same job in memory, in
		// the same process, minutes apart at most.
		inMem, _, err := r.pass(tr, "probe.job_mem", 0, r.e.threads, false)
		if err != nil {
			return err
		}
		ratio := tN.wall / inMem.wall
		tr.add("storage.job_over_mem", ratio)
		if ratio < 1 {
			fmt.Fprintf(os.Stderr, "benchmark: %s: NOTE the budgeted job took %.2f x the in-memory job: out of core is not slower here "+
				"(the spill stays in the page cache and the in-memory level pays for its page faults); read storage changes from cpu_s and storage.*\n", r.w.Name, ratio)
		}
	}
	return nil
}
