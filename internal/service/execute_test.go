package service

import (
	"context"
	"reflect"
	"testing"

	"kaleido"
)

// TestExecuteMatchesDirectCalls pins the wire result of every application
// against the direct Graph call of the same job: Count (for FSM the number of
// frequent patterns, as the field doc says), Patterns after MinCount/TopK,
// and TotalPatterns before them.
func TestExecuteMatchesDirectCalls(t *testing.T) {
	ctx := context.Background()
	g, err := kaleido.Synthetic(250, 1000, 4, 11)
	if err != nil {
		t.Fatal(err)
	}
	cfg := kaleido.Config{Threads: 2, Predict: true}
	sum := func(pats []kaleido.PatternCount) (n uint64) {
		for _, pc := range pats {
			n += pc.Count
		}
		return n
	}
	tc, err := g.Triangles(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cliques, err := g.Cliques(ctx, 4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	motifs, err := g.Motifs(ctx, 4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fsm, err := g.FSM(ctx, 3, 40, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(motifs) < 3 || len(fsm) < 3 {
		t.Fatalf("test graph too small for the filters: %d motifs, %d frequent patterns", len(motifs), len(fsm))
	}
	for _, c := range []struct {
		spec     JobSpec
		count    uint64
		patterns []kaleido.PatternCount
	}{
		{JobSpec{App: "tc"}, tc, nil},
		{JobSpec{App: "clique", K: 4}, cliques, nil},
		{JobSpec{App: "motif", K: 4}, sum(motifs), motifs},
		{JobSpec{App: "motif", K: 4, MinCount: motifs[1].Count, TopK: 1}, sum(motifs), motifs},
		{JobSpec{App: "fsm", K: 3, Support: 40}, uint64(len(fsm)), fsm},
		{JobSpec{App: "fsm", K: 3, Support: 40, MinCount: fsm[2].Count, TopK: 2}, uint64(len(fsm)), fsm},
	} {
		c.spec.Threads = 2
		var stats kaleido.Stats
		got, err := Execute(ctx, &kaleido.Engine{}, g, &c.spec, &stats)
		if err != nil {
			t.Fatalf("%+v: %v", c.spec, err)
		}
		want := &JobResult{
			Count:         c.count,
			Patterns:      filterPatterns(c.patterns, c.spec.MinCount, c.spec.TopK),
			TotalPatterns: len(c.patterns),
			Stats:         stats,
		}
		if stats.PeakBytes == 0 || !reflect.DeepEqual(got, want) {
			t.Errorf("%+v:\n got %+v\nwant %+v", c.spec, got, want)
		}
		if n := len(got.Patterns); c.spec.TopK > 0 && n != c.spec.TopK {
			t.Errorf("%+v: %d patterns on the wire, want TopK", c.spec, n)
		}
	}
}
