package main

import (
	"bufio"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"

	"kaleido"
)

// genParams describes one input graph of the benchmark's own generator. It
// is deliberately not kaleido.Synthetic: a change to the repo's generator
// must not move the pinned counts.
type genParams struct {
	// Blocks is the number of independently wired power-law communities.
	// The work of a mining job is dominated by each community's hub core,
	// whose wiring is the random part; summing many independent cores is
	// what keeps job time within a few percent from seed to seed (one
	// community of the same total size moved clique4 job time by 12%).
	Blocks int
	N      int // vertices per block
	M      int // distinct undirected edges per block, exact for every seed
	// Cross is the number of uniformly random edges added between blocks so
	// the graph is connected the way community graphs are.
	Cross int
	// Offset flattens the head of the rank-weight curve
	// w(i) = (i+Offset)^(-1/(Alpha-1)); it caps the hub degree, which is
	// what sets how many embeddings a depth-4 exploration produces.
	Offset float64
	Labels int // distinct vertex labels (1 = unlabeled)
}

// alpha is the exponent of the power-law degree distribution (paper
// datasets: 2.1-2.4).
const alpha = 2.2

// edgeList is a generated input: what the program under test receives.
type edgeList struct {
	N      int
	Edges  [][2]uint32
	Labels []uint16 // nil when unlabeled
}

// generate draws, in every block, exactly p.M distinct edges with endpoint
// probability proportional to the rank weight (a Chung-Lu graph with a fixed
// edge count), so every seed gives the same size and nearly the same degree
// sequence and only the wiring differs.
func generate(p genParams, seed int64) *edgeList {
	rng := rand.New(rand.NewSource(seed))
	cum := make([]float64, p.N)
	sum := 0.0
	for i := range cum {
		sum += math.Pow(float64(i)+p.Offset, -1/(alpha-1))
		cum[i] = sum
	}
	n := p.Blocks * p.N
	el := &edgeList{N: n, Edges: make([][2]uint32, 0, p.Blocks*p.M+p.Cross)}
	seen := make(map[uint64]struct{}, cap(el.Edges))
	add := func(u, v uint32) {
		if u == v {
			return
		}
		if u > v {
			u, v = v, u
		}
		key := uint64(u)<<32 | uint64(v)
		if _, dup := seen[key]; dup {
			return
		}
		seen[key] = struct{}{}
		el.Edges = append(el.Edges, [2]uint32{u, v})
	}
	for b := 0; b < p.Blocks; b++ {
		base := uint32(b * p.N)
		pick := func() uint32 {
			i := sort.SearchFloat64s(cum, rng.Float64()*sum)
			return base + uint32(min(i, p.N-1))
		}
		for want := (b + 1) * p.M; len(el.Edges) < want; {
			add(pick(), pick())
		}
	}
	for want := len(el.Edges) + p.Cross; len(el.Edges) < want; {
		add(uint32(rng.Intn(n)), uint32(rng.Intn(n)))
	}
	if p.Labels > 1 {
		el.Labels = make([]uint16, n)
		for i := range el.Labels {
			el.Labels[i] = uint16(rng.Intn(p.Labels))
		}
	}
	return el
}

// build feeds the edge list through the public builder.
func (el *edgeList) build() (*kaleido.Graph, error) {
	gb := kaleido.NewGraphBuilder(el.N)
	for _, e := range el.Edges {
		gb.AddEdge(e[0], e[1])
	}
	for v, l := range el.Labels {
		gb.SetLabel(uint32(v), l)
	}
	return gb.Build()
}

// writeFile writes the edge list in the text format LoadEdgeListFile and
// kaleidod's "graph" job field read.
func (el *edgeList) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, e := range el.Edges {
		fmt.Fprintf(w, "%d %d\n", e[0], e[1])
	}
	for v, l := range el.Labels {
		fmt.Fprintf(w, "%d label=%d\n", v, l)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
