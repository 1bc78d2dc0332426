package main

// counts is what a job produced, by name: embeddings per level, cliques,
// motif shape counts, pattern counts. A job passes when its counts equal the
// reference computed for the seed (oracles and cross-regime runs, see
// reference.go) and, for the default seed at full scale, the pins below.
type counts map[string]uint64

// kind selects the runner that executes a workload's jobs.
type kind int

const (
	kindMotif  kind = iota // Graph.Motifs
	kindClique             // Graph.Cliques
	kindFSM                // Graph.FSM
	kindStore              // Engine.NewMiner + Expand to depth K + Close
	kindServed             // kaleidod child + closed-loop HTTP clients
)

// workload is one named set of inputs and the job run against them.
type workload struct {
	Name string
	// Why is the one-line reason the workload exists (BENCHMARK.json).
	Why  string
	Kind kind
	// Graph is the input; GraphB is the second edge-list file of served-mix.
	Graph, GraphB genParams
	K             int
	Support       uint64 // FSM
	// Budget is the MemoryBudget of the job (0 = in memory). For served-mix
	// it is the daemon's -budget.
	Budget int64
	// Pins are the expected counts for defaultSeed at scale 1.
	Pins counts
}

const defaultSeed = 42

// storeGraph is shared by the three store4 regimes so that their job times
// subtract: job_s(store4-disk) - job_s(store4-mem) is the price of going out
// of core on the same embeddings.
var storeGraph = genParams{Blocks: 56, N: 400, M: 1600, Cross: 560, Offset: 3}

// storePins: embeddings per level of storeGraph at defaultSeed.
var storePins = counts{"l2": 90160, "l3": 1853571, "l4": 53109953}

// storeMemPeak is the tracked peak of store4-mem at defaultSeed; the hybrid
// budget is pinned to 0.45 of it (the paper's half-memory-half-disk regime).
const storeMemPeak = 236033408

// servedJobPeak is the largest tracked peak of a single served job (the
// clique job) at defaultSeed; the daemon's -budget is pinned to 1.5 x it, so
// that admission has to decide: two small jobs overlap, two large ones queue.
const servedJobPeak = 470284

var workloads = []workload{
	{
		Name:  "motif4-mem",
		Why:   "Motifs(k=4), ~190k embeddings hashed: iso (pattern fill + char-poly hash) does almost all the work, storage none",
		Kind:  kindMotif,
		Graph: genParams{Blocks: 64, N: 60, M: 105, Cross: 200, Offset: 4},
		K:     4,
		Pins: counts{
			"l4": 187306, "patterns": 6,
			"shape.path": 106656, "shape.star": 58298, "shape.cycle": 2693,
			"shape.tailed-triangle": 18278, "shape.diamond": 1326, "shape.clique": 55,
		},
	},
	{
		Name:  "clique4-mem",
		Why:   "Cliques(k=4) on 8k vertices/60k edges: explore merge + NeighborMarker probes + CountSink; no hashing, no stored top level",
		Kind:  kindClique,
		Graph: genParams{Blocks: 32, N: 250, M: 1875, Cross: 500, Offset: 3},
		K:     4,
		Pins:  counts{"cliques": 126042},
	},
	{
		Name:  "store4-mem",
		Why:   "Miner Expand x3 to depth 4, ~53M embeddings/236MB stored in memory: explore merge + cse level builder; baseline for the budgeted runs",
		Kind:  kindStore,
		Graph: storeGraph,
		K:     4,
		Pins:  storePins,
	},
	{
		Name:   "store4-disk",
		Why:    "same job with MemoryBudget 1, every part spills (110MB written per job): storage codec, WriteQueue, prefetch + decode; the price of out-of-core",
		Kind:   kindStore,
		Graph:  storeGraph,
		K:      4,
		Budget: 1,
		Pins:   storePins,
	},
	{
		Name:   "store4-hybrid",
		Why:    "same job with budget 0.45 x in-memory peak (half-memory-half-disk): governor, compress-before-spill, partial spill",
		Kind:   kindStore,
		Graph:  storeGraph,
		K:      4,
		Budget: storeMemPeak * 45 / 100,
		Pins:   storePins,
	},
	{
		Name:    "fsm4-disk",
		Why:     "FSM(k=4, support 100), 4 labels, MemoryBudget 1: edge-induced expansion, mni domains, FilterTop rewrite of spilled parts",
		Kind:    kindFSM,
		Graph:   genParams{Blocks: 32, N: 60, M: 120, Cross: 100, Offset: 4, Labels: 4},
		K:       4,
		Support: 100,
		Budget:  1,
		Pins:    counts{"patterns": 152, "embeddings": 141292},
	},
	{
		Name:   "served-mix",
		Why:    "kaleidod child, budget 1.5 x the largest job, 2 closed-loop HTTP clients, 30% tc / 50% clique4 / 20% motif3 over 2 files: service, admission queue, GraphCache",
		Kind:   kindServed,
		Graph:  genParams{Blocks: 16, N: 250, M: 1500, Cross: 200, Offset: 3},
		GraphB: genParams{Blocks: 24, N: 200, M: 450, Cross: 200, Offset: 3},
		K:      4,
		Budget: servedJobPeak * 3 / 2,
		Pins:   counts{"tc.A": 32937, "tc.B": 3480, "clique4.A": 27213, "motif3.B": 106364},
	},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// scaled shrinks a workload's inputs for the smoke test: fewer communities
// of the same shape. Pins and pinned budgets do not apply to scaled inputs.
func (w workload) scaled(scale int) workload {
	if scale <= 1 {
		return w
	}
	w.Graph.Blocks = max(1, w.Graph.Blocks/scale)
	w.Graph.Cross /= scale
	w.GraphB.Blocks = max(1, w.GraphB.Blocks/scale)
	w.GraphB.Cross /= scale
	w.Support = max(2, w.Support/uint64(scale))
	if w.Budget > 1 {
		w.Budget /= int64(scale)
	}
	w.Pins = nil
	return w
}
