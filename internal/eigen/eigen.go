// Package eigen implements Kaleido's lightweight graph-isomorphism hash
// (paper §3.2, Algorithm 1). Instead of building a search tree per pattern
// like bliss, it normalizes the pattern's vertex order by (label, degree),
// forms a label-weighted adjacency matrix, computes its characteristic
// polynomial by Faddeev–LeVerrier, and hashes labels ⊕ degrees ⊕ polynomial.
//
// By Theorem 2 of the paper (building on Harary's cospectral-graph bounds),
// for embeddings with fewer than 9 vertices equal hashes coincide with
// isomorphism. The characteristic polynomial is computed exactly modulo the
// two primes next to 2^61; both residue vectors enter the hash, so a false merge
// additionally requires a simultaneous double-modular collision.
package eigen

import (
	"kaleido/internal/linalg"
	"kaleido/internal/pattern"
)

// Hasher computes Algorithm 1 hash values. It is stateless except for
// scratch buffers, so one Hasher per worker thread avoids all allocation in
// the hot aggregation loop. A Hasher is not safe for concurrent use.
type Hasher struct {
	exact  bool // use math/big exact coefficients instead of modular fingerprints
	m      [linalg.MaxN * linalg.MaxN]uint64
	mi     [linalg.MaxN * linalg.MaxN]int64
	coeffs [linalg.MaxN + 1]uint64
}

// New returns a Hasher using the default double-modular fingerprint path.
func New() *Hasher { return &Hasher{} }

// NewExact returns a Hasher that computes exact big-integer characteristic
// polynomials. ~10× slower and allocation-heavy; retained for verification
// and for the ablation benchmarks.
func NewExact() *Hasher { return &Hasher{exact: true} }

// Hash computes the isomorphism-invariant hash of p (paper Algorithm 1,
// EigenHash). p is mutated: its vertices are sorted by (label, degree),
// which aggregation callers rely on for MNI domain positions.
func (h *Hasher) Hash(p *pattern.Pattern) uint64 {
	p.SortByLabelDegree()
	k := p.K

	// Weighted adjacency matrix: m[i][j] = pair(l_i, l_j) on edges. After
	// sorting, l_i ≤ l_j for i < j, so pair(a, b) with a = min is stable.
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			h.m[i*k+j] = 0
		}
	}
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			if p.HasEdge(i, j) {
				w := pairWeight(uint64(p.Labels[i]), uint64(p.Labels[j]))
				h.m[i*k+j] = w
				h.m[j*k+i] = w
			}
		}
	}

	// hash(L) ⊕ hash(D) ⊕ hash(P), paper line 36.
	hv := fnv1a(fnvOffset, uint64(k))
	for i := 0; i < k; i++ {
		hv = fnv1a(hv, uint64(p.Labels[i]))
	}
	hd := fnvOffset
	for i := 0; i < k; i++ {
		hd = fnv1a(hd, uint64(p.Deg[i]))
	}
	var hp uint64
	if h.exact {
		hp = h.hashPolyExact(k)
	} else {
		hp = h.hashPolyMod(k)
	}
	return hv ^ hd ^ hp
}

func (h *Hasher) hashPolyMod(k int) uint64 {
	hp := fnvOffset
	for _, p := range []uint64{linalg.P1, linalg.P2} {
		coeffs := linalg.CharPolyModInto(h.coeffs[:k+1], h.m[:], k, p)
		for _, c := range coeffs {
			hp = fnv1a(hp, c)
		}
	}
	return hp
}

func (h *Hasher) hashPolyExact(k int) uint64 {
	for i := 0; i < k*k; i++ {
		h.mi[i] = int64(h.m[i])
	}
	coeffs := linalg.CharPolyBig(h.mi[:], k)
	hp := fnvOffset
	for _, c := range coeffs {
		hp = fnv1a(hp, uint64(c.Sign()))
		for _, w := range c.Bits() {
			hp = fnv1a(hp, uint64(w))
		}
	}
	return hp
}

// pairWeight combines two labels into an order-independent edge weight.
// Labels are < 2^16, so the weight is < 2^32 and Faddeev–LeVerrier stays
// exact under both moduli.
func pairWeight(a, b uint64) uint64 {
	if a > b {
		a, b = b, a
	}
	return (a+1)<<16 | (b + 1)
}

const (
	fnvOffset = uint64(14695981039346656037)
	fnvPrime  = uint64(1099511628211)
)

// fnv1a folds one 64-bit word into an FNV-1a running hash.
func fnv1a(h, w uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= w & 0xff
		h *= fnvPrime
		w >>= 8
	}
	return h
}
