package kaleido

import (
	"kaleido/internal/dataset"
	"kaleido/internal/gen"
)

// Dataset returns a named evaluation graph: "citeseer", "mico", "patent" or
// "youtube" — seeded synthetic equivalents of the paper's Table 1 datasets
// (same label count and average degree, power-law degrees, scaled vertex
// counts; see DESIGN.md). cacheDir caches the generated graph on disk ("" to
// regenerate every call).
func Dataset(name, cacheDir string) (*Graph, error) {
	d, err := dataset.ByName(name)
	if err != nil {
		return nil, err
	}
	g, err := dataset.Load(d, cacheDir)
	if err != nil {
		return nil, err
	}
	// Load relabels new graphs itself (and caches carry the relabel flag);
	// wrapGraph is a no-op then, but covers caches written before the flag.
	return wrapGraph(g)
}

// DatasetNames lists the available named datasets.
func DatasetNames() []string {
	names := make([]string, len(dataset.All))
	for i, d := range dataset.All {
		names[i] = d.Name
	}
	return names
}

// Synthetic generates a labeled power-law random graph with n vertices,
// ~m edges, the given label count and deterministic seed.
func Synthetic(n, m, labels int, seed int64) (*Graph, error) {
	g, err := gen.PowerLaw(gen.Config{
		N: n, M: m, Alpha: 2.2, NumLabels: labels, LabelSkew: 0.8, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	return wrapGraph(g)
}
