package mni

import "math/bits"

// domain is the set of distinct graph vertices mapped to one pattern position
// class, with a running count. It starts as a small open-addressing table of
// uint32 (power-of-two length, load ≤ ½, linear probing, 0 marking an empty
// slot, so vertex v is stored as v+1) and becomes a bitset over |V| —
// words = (|V|+63)/64 uint64s — when growing the table would cost more bytes
// than the bitset. A table holds 8–16 bytes per vertex and never more bytes
// than the bitset, so no domain costs more than |V|/8 bytes (rounded up to a
// word).
type domain struct {
	set  []uint32 // v+1 per occupied slot; nil before the first add and once bits is used
	bits []uint64 // bit v ⇔ vertex v, once the table outgrew it
	n    int      // distinct vertices held
}

// minSet is the length of a domain's first table.
const minSet = 4

// add inserts vertex v (< |V|): a probe into the table, or a test-and-set on
// the bitset. words is the bitset length over |V|. It reports whether v was
// new, i.e. whether the count grew.
func (d *domain) add(v uint32, words int) bool {
	if d.bits != nil {
		w, m := &d.bits[v>>6], uint64(1)<<(v&63)
		if *w&m != 0 {
			return false
		}
		*w |= m
		d.n++
		return true
	}
	key := v + 1
	if len(d.set) > 0 {
		mask := len(d.set) - 1
		i := slot(key, len(d.set))
		for ; d.set[i] != 0; i = (i + 1) & mask {
			if d.set[i] == key {
				return false
			}
		}
		if 2*(d.n+1) <= len(d.set) {
			d.set[i] = key
			d.n++
			return true
		}
	}
	d.grow(words)
	return d.add(v, words)
}

// slot is key's home slot in a table of length size: the top bits of a
// Fibonacci hash, so strided vertex ids spread as well as consecutive ones.
func slot(key uint32, size int) int {
	return int(key * 0x9E3779B9 >> (bits.LeadingZeros32(uint32(size)) + 1))
}

// grow doubles the table, or turns the domain into a bitset when the doubled
// table would cost more bytes than words uint64s.
func (d *domain) grow(words int) {
	size := max(minSet, 2*len(d.set))
	if 4*size > 8*words {
		d.toBits(words)
		return
	}
	old := d.set
	d.set = make([]uint32, size)
	mask := size - 1
	for _, key := range old {
		if key == 0 {
			continue
		}
		i := slot(key, size)
		for d.set[i] != 0 {
			i = (i + 1) & mask
		}
		d.set[i] = key
	}
}

// toBits moves the table's vertices into a fresh bitset of words uint64s.
func (d *domain) toBits(words int) {
	d.bits = make([]uint64, words)
	for _, key := range d.set {
		if key != 0 {
			v := key - 1
			d.bits[v>>6] |= 1 << (v & 63)
		}
	}
	d.set = nil
}

// merge folds b into d: set into set one probe per vertex, or a word-wise OR
// with a popcount once either side is a bitset.
func (d *domain) merge(b *domain, words int) {
	if b.bits == nil {
		for _, key := range b.set {
			if key != 0 {
				d.add(key-1, words)
			}
		}
		return
	}
	if d.bits == nil {
		d.toBits(words)
	}
	n := 0
	for i, w := range b.bits {
		d.bits[i] |= w
		n += bits.OnesCount64(d.bits[i])
	}
	d.n = n
}
