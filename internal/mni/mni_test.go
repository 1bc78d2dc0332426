package mni

import (
	"testing"

	"kaleido/internal/pattern"
)

func pathPattern(t *testing.T) *pattern.Pattern {
	t.Helper()
	p, err := pattern.New(3)
	if err != nil {
		t.Fatal(err)
	}
	p.Labels = [pattern.MaxK]uint16{0, 1, 1}
	p.SetEdge(0, 1)
	p.SetEdge(0, 2)
	p.SortByLabelDegree()
	return p
}

func TestTieClasses(t *testing.T) {
	p := pathPattern(t)
	// Sorted: center (label 0, deg 2) first, then two (label 1, deg 1) leaves.
	tie := TieClasses(p)
	if tie[0] != 0 || tie[1] != 1 || tie[2] != 1 {
		t.Fatalf("tie = %v", tie)
	}
}

func TestEarlyStop(t *testing.T) {
	p := pathPattern(t)
	a := NewAgg(p, 64)
	perm := [pattern.MaxK]uint8{0, 1, 2} // already sorted order
	a.Insert([]uint32{10, 20, 21}, &perm, 2)
	if a.Frequent() {
		t.Fatal("frequent after one embedding (center domain = 1)")
	}
	a.Insert([]uint32{11, 22, 23}, &perm, 2)
	if !a.Frequent() {
		t.Fatalf("not frequent after two centers; support = %d", a.Support())
	}
	if a.Support() != 2 || a.Count != 2 {
		t.Fatalf("support=%d count=%d", a.Support(), a.Count)
	}
	// Inserting after the flip only bumps the count.
	a.Insert([]uint32{12, 24, 25}, &perm, 2)
	if a.Count != 3 || a.Support() != 2 {
		t.Fatalf("post-flip: support=%d count=%d", a.Support(), a.Count)
	}
}

func TestMerge(t *testing.T) {
	p := pathPattern(t)
	perm := [pattern.MaxK]uint8{0, 1, 2}
	a, b := NewAgg(p, 64), NewAgg(p, 64)
	a.Insert([]uint32{10, 20, 21}, &perm, 2)
	b.Insert([]uint32{11, 20, 22}, &perm, 2)
	a.Merge(b, 2)
	if !a.Frequent() || a.Count != 2 {
		t.Fatalf("merge: frequent=%v count=%d support=%d", a.Frequent(), a.Count, a.Support())
	}
	// Merging a frequent agg into a fresh one propagates the flag.
	c := NewAgg(p, 64)
	c.Merge(a, 2)
	if !c.Frequent() || c.Count != 2 {
		t.Fatalf("frequent propagation: %v %d", c.Frequent(), c.Count)
	}
}

func TestMergeMaps(t *testing.T) {
	p := pathPattern(t)
	perm := [pattern.MaxK]uint8{0, 1, 2}
	m1 := map[uint64]*Agg{7: NewAgg(p, 64)}
	m2 := map[uint64]*Agg{7: NewAgg(p, 64), 9: NewAgg(p, 64)}
	m1[7].Insert([]uint32{10, 20, 21}, &perm, 5)
	m2[7].Insert([]uint32{11, 22, 23}, &perm, 5)
	m2[9].Insert([]uint32{1, 2, 3}, &perm, 5)
	out := MergeMaps([]map[uint64]*Agg{m1, m2}, 5)
	if len(out) != 2 || out[7].Count != 2 || out[9].Count != 1 {
		t.Fatalf("merged = %+v", out)
	}
	if out[7].Support() != 2 {
		t.Fatalf("support = %d, want 2", out[7].Support())
	}
}
