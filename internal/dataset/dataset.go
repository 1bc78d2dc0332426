// Package dataset provides the named evaluation graphs of the Kaleido paper
// (§6.1, Table 1) as seeded synthetic equivalents. The real CiteSeer, MiCo,
// Patents and Youtube files are not redistributable in this offline build, so
// each named dataset is generated with the same label count and average
// degree, a power-law degree distribution, and a scaled-down vertex count so
// the complete experiment suite fits in CI time. The scale factor is part of
// the dataset descriptor (Desc.Scale).
package dataset

import (
	"fmt"
	"os"
	"path/filepath"

	"kaleido/internal/gen"
	"kaleido/internal/graph"
)

// Desc describes a named dataset: the paper's original statistics and the
// generation parameters of the synthetic stand-in.
type Desc struct {
	Name string

	// Paper-reported statistics of the original dataset (Table 1).
	PaperVertices int
	PaperEdges    int
	PaperLabels   int
	PaperAvgDeg   int

	// Generation parameters of the synthetic equivalent.
	Cfg gen.Config
}

// Scale reports the linear vertex-count scale factor of the synthetic
// stand-in relative to the paper's dataset.
func (d Desc) Scale() float64 {
	return float64(d.Cfg.N) / float64(d.PaperVertices)
}

// The named datasets of Table 1. Average degree and label count follow the
// paper; vertex counts are scaled so the complete evaluation (three systems,
// all applications) completes in minutes rather than the paper's hours.
var (
	// CiteSeer is small enough to reproduce at full scale.
	CiteSeer = Desc{
		Name:          "citeseer",
		PaperVertices: 3312, PaperEdges: 4536, PaperLabels: 6, PaperAvgDeg: 3,
		Cfg: gen.Config{N: 3312, M: 4536, Alpha: 2.4, NumLabels: 6, LabelSkew: 0.7, Seed: 0xC17E5EE8},
	}
	// MiCo: dense co-authorship graph (avg degree 22 in the paper; 16 here —
	// the densest dataset of the suite, as in the paper). Power-law hubs
	// make the 4-embedding count grow superlinearly in d̄, so the scaled
	// stand-in trades a little density for a CI-sized 4-Motif run.
	MiCo = Desc{
		Name:          "mico",
		PaperVertices: 100000, PaperEdges: 1080298, PaperLabels: 29, PaperAvgDeg: 22,
		Cfg: gen.Config{N: 4000, M: 24000, Alpha: 2.7, NumLabels: 29, LabelSkew: 0.8, Seed: 0x00C0FFEE},
	}
	// Patent: sparse citation graph (avg degree 9) with a two-level label
	// hierarchy (7 categories / 37 sub-categories) for the Fig. 13
	// experiment.
	Patent = Desc{
		Name:          "patent",
		PaperVertices: 3774768, PaperEdges: 16518948, PaperLabels: 37, PaperAvgDeg: 9,
		Cfg: gen.Config{N: 20000, M: 88000, Alpha: 2.8, NumLabels: 37, LabelSkew: 0.6, Seed: 0x9A7E47},
	}
	// Youtube: the largest graph of the suite (avg degree 17 in the paper).
	Youtube = Desc{
		Name:          "youtube",
		PaperVertices: 7065219, PaperEdges: 59811883, PaperLabels: 29, PaperAvgDeg: 17,
		Cfg: gen.Config{N: 30000, M: 210000, Alpha: 2.8, NumLabels: 29, LabelSkew: 0.9, Seed: 0x10073BE},
	}
)

// All lists the four named datasets in the paper's order.
var All = []Desc{CiteSeer, MiCo, Patent, Youtube}

// ByName returns the descriptor for a dataset name.
func ByName(name string) (Desc, error) {
	for _, d := range All {
		if d.Name == name {
			return d, nil
		}
	}
	return Desc{}, fmt.Errorf("dataset: unknown dataset %q (have citeseer, mico, patent, youtube)", name)
}

// Generate builds the synthetic graph for the descriptor.
func Generate(d Desc) (*graph.Graph, error) {
	g, err := gen.PowerLaw(d.Cfg)
	if err != nil {
		return nil, fmt.Errorf("dataset %s: %w", d.Name, err)
	}
	return g, nil
}

// Load returns the dataset graph — degree-order relabeled for cache-aware
// mining — generating and caching it under cacheDir ("" disables caching).
// Cached files store original ids plus the relabel flag, so a cache hit
// reproduces the identical permutation; they are validated on read and
// regenerated on any corruption.
func Load(d Desc, cacheDir string) (*graph.Graph, error) {
	if cacheDir == "" {
		return generateRelabeled(d)
	}
	// The generation parameters are part of the file name so a descriptor
	// change invalidates stale caches.
	path := filepath.Join(cacheDir, fmt.Sprintf("%s-n%d-m%d-s%x.kg", d.Name, d.Cfg.N, d.Cfg.M, d.Cfg.Seed))
	if g, err := graph.LoadFile(path); err == nil {
		return g, nil
	}
	g, err := generateRelabeled(d)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cacheDir, 0o755); err != nil {
		return nil, err
	}
	if err := g.SaveFile(path); err != nil {
		return nil, err
	}
	return g, nil
}

func generateRelabeled(d Desc) (*graph.Graph, error) {
	g, err := Generate(d)
	if err != nil {
		return nil, err
	}
	return graph.Relabel(g)
}

// CoarsenPatentLabels maps the Patent dataset's 37 fine-grained labels onto 7
// coarse categories, reproducing the paper's PA-7 variant (Fig. 13): the
// original graph carries two label levels (category and sub-category of each
// patent).
func CoarsenPatentLabels(g *graph.Graph) (*graph.Graph, error) {
	// Rebuild under original ids so the coarsened graph carries the same
	// id contract (and relabel pass) as its source.
	labels := make([]graph.Label, g.N())
	edges := make([]graph.Edge, 0, g.M())
	for v := 0; v < g.N(); v++ {
		labels[g.OrigID(uint32(v))] = g.Label(uint32(v)) * 7 / 37
	}
	for _, e := range g.Edges() {
		u, v := g.OrigID(e.U), g.OrigID(e.V)
		if u > v {
			u, v = v, u
		}
		edges = append(edges, graph.Edge{U: u, V: v})
	}
	ng, err := graph.FromEdges(g.N(), edges, labels)
	if err != nil || !g.Relabeled() {
		return ng, err
	}
	return graph.Relabel(ng)
}
