package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"
)

// ReadEdgeList parses a whitespace-separated text edge list. Lines beginning
// with '#' or '%' are comments. Each data line is either
//
//	u v          — an edge
//	v label=L    — a vertex label assignment
//
// Vertex ids may be sparse; they are compacted to dense ids in first-seen
// order. This covers the SNAP-style files the paper's datasets ship in.
func ReadEdgeList(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	remap := map[uint64]uint32{}
	id := func(raw uint64) uint32 {
		if v, ok := remap[raw]; ok {
			return v
		}
		v := uint32(len(remap))
		remap[raw] = v
		return v
	}
	type lbl struct {
		v uint32
		l Label
	}
	var edges []Edge
	var labels []lbl
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || text[0] == '#' || text[0] == '%' {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) != 2 {
			return nil, fmt.Errorf("graph: line %d: want 2 fields, got %d", line, len(fields))
		}
		u, err := strconv.ParseUint(fields[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: %v", line, err)
		}
		if lv, ok := strings.CutPrefix(fields[1], "label="); ok {
			l, err := strconv.ParseUint(lv, 10, 16)
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: %v", line, err)
			}
			labels = append(labels, lbl{id(u), Label(l)})
			continue
		}
		v, err := strconv.ParseUint(fields[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: %v", line, err)
		}
		ui, vi := id(u), id(v)
		edges = append(edges, Edge{ui, vi})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	b := NewBuilder(len(remap))
	for _, e := range edges {
		b.AddEdge(e.U, e.V)
	}
	for _, l := range labels {
		b.SetLabel(l.v, l.l)
	}
	return b.Build()
}

// binaryMagic identifies the Kaleido binary graph format.
const binaryMagic = uint32(0x4b414c44) // "KALD"

// binaryRelabeled is the version-2 flag bit recording that the graph was
// degree-order relabeled. The file always stores original (load-time) ids —
// stable across relabeling policy changes and diffable against the text edge
// list — and the reader re-runs the deterministic Relabel pass when the flag
// is set, reproducing the identical permutation.
const binaryRelabeled = uint32(1)

// WriteBinary serializes the graph in a compact little-endian binary format
// so generated datasets can be cached between benchmark runs. Version 2 adds
// a flags word after the header; edges and labels are written under the
// original vertex ids regardless of relabeling.
func (g *Graph) WriteBinary(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	flags := uint32(0)
	if g.Relabeled() {
		flags |= binaryRelabeled
	}
	hdr := []uint32{binaryMagic, 2, uint32(g.n), uint32(g.m), uint32(g.numLabels), flags}
	for _, h := range hdr {
		if err := binary.Write(bw, binary.LittleEndian, h); err != nil {
			return err
		}
	}
	edges := g.edges
	if g.Relabeled() {
		edges = make([]Edge, g.m)
		for i, e := range g.edges {
			u, v := g.origID[e.U], g.origID[e.V]
			if u > v {
				u, v = v, u
			}
			edges[i] = Edge{u, v}
		}
	}
	if err := binary.Write(bw, binary.LittleEndian, edges); err != nil {
		return err
	}
	labels := g.labels
	if g.Relabeled() {
		labels = make([]Label, g.n)
		for nv, l := range g.labels {
			labels[g.origID[nv]] = l
		}
	}
	if err := binary.Write(bw, binary.LittleEndian, labels); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadBinary deserializes a graph written by WriteBinary, validating all
// invariants before returning. Version-1 files (no flags word, never
// relabeled) are still accepted.
func ReadBinary(r io.Reader) (*Graph, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	var magic, version, n, m, numLabels uint32
	for _, p := range []*uint32{&magic, &version, &n, &m, &numLabels} {
		if err := binary.Read(br, binary.LittleEndian, p); err != nil {
			return nil, fmt.Errorf("graph: bad binary header: %w", err)
		}
	}
	if magic != binaryMagic {
		return nil, fmt.Errorf("graph: bad magic %#x", magic)
	}
	if version != 1 && version != 2 {
		return nil, fmt.Errorf("graph: unsupported version %d", version)
	}
	var flags uint32
	if version == 2 {
		if err := binary.Read(br, binary.LittleEndian, &flags); err != nil {
			return nil, fmt.Errorf("graph: bad binary header: %w", err)
		}
	}
	if n > 1<<30 || m > 1<<31 {
		return nil, fmt.Errorf("graph: implausible sizes n=%d m=%d", n, m)
	}
	edges, err := readChunked[Edge](br, int(m))
	if err != nil {
		return nil, fmt.Errorf("graph: truncated edges: %w", err)
	}
	labels, err := readChunked[Label](br, int(n))
	if err != nil {
		return nil, fmt.Errorf("graph: truncated labels: %w", err)
	}
	g, err := FromEdges(int(n), edges, labels)
	if err != nil {
		return nil, err
	}
	if flags&binaryRelabeled != 0 {
		return Relabel(g)
	}
	return g, nil
}

// readChunk is how many values readChunked reads at a time.
const readChunk = 1 << 16

// readChunked reads n little-endian values, readChunk at a time, so memory
// grows with the bytes r actually holds: a header that overstates n fails at
// the end of the input instead of allocating all n up front.
func readChunked[T Edge | Label](r io.Reader, n int) ([]T, error) {
	var out []T
	for len(out) < n {
		c := min(n-len(out), readChunk)
		out = slices.Grow(out, c)[:len(out)+c]
		if err := binary.Read(r, binary.LittleEndian, out[len(out)-c:]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// SaveFile writes the binary format to path.
func (g *Graph) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := g.WriteBinary(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadFile reads a binary graph from path.
func LoadFile(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadBinary(f)
}
