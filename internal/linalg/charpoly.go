// Package linalg implements the small dense-matrix linear algebra behind
// Kaleido's isomorphism check: the characteristic polynomial of a weighted
// adjacency matrix computed with the Faddeev–LeVerrier algorithm (paper
// Algorithm 1, CharPloynomical). Two arithmetics are provided:
//
//   - an exact computation modulo two primes next to 2^61 (P1, P2), the
//     default production path (integer characteristic-polynomial coefficients
//     of k≤8 weighted matrices overflow int64, and floating point would make
//     hash equality unreliable);
//   - an exact big.Int computation retained for verification and ablation.
//
// Matrices are stored row-major in flat slices; all matrices here are at most
// MaxN×MaxN, so everything is stack-friendly and allocation-light.
package linalg

import (
	"math/big"
	"math/bits"
)

// MaxN is the largest supported matrix dimension. The paper's isomorphism
// check is valid for embeddings with fewer than 9 vertices (Corollary 1), so
// 8 is exactly the supported maximum.
const MaxN = 8

// The two moduli used by the fingerprinted characteristic polynomial.
// P1 is the 61-bit Mersenne prime 2^61−1; P2 = 2^61+15 is the next prime
// above it, one bit longer. A collision requires all n+1 coefficients to
// agree modulo both primes, probability < (n+1)·2^-122 for adversarial
// inputs drawn independently.
const (
	P1 uint64 = (1 << 61) - 1
	P2 uint64 = 2305843009213693967 // 2^61+15
)

// mulmod returns a*b mod p using a 128-bit intermediate product. Modulo the
// Mersenne prime P1 the reduction is shifts and adds (2^61 ≡ 1, so the
// product's 61-bit digits simply sum); other moduli pay a 128-by-64 division.
func mulmod(a, b, p uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	if p == P1 {
		// hi·2^64 + lo with 2^64 ≡ 8: four digits below 2^61 (two of them
		// tiny), whose sum fits 63 bits and folds once more.
		s := lo&P1 + lo>>61 + (hi<<3)&P1 + hi>>58
		s = s&P1 + s>>61
		if s >= P1 {
			s -= P1
		}
		return s
	}
	_, rem := bits.Div64(hi%p, lo, p)
	return rem
}

func addmod(a, b, p uint64) uint64 {
	s := a + b
	if s >= p || s < a { // s < a catches the (impossible below 2^62) wrap
		s -= p
	}
	return s
}

func submod(a, b, p uint64) uint64 {
	if a >= b {
		return a - b
	}
	return a + p - b
}

// smallInv caches the inverses of 1..MaxN for the two fixed primes — the
// only divisors Faddeev–LeVerrier needs at our matrix sizes. Computing them
// by Fermat exponentiation per call would dominate the hash cost.
var smallInvP1, smallInvP2 [MaxN + 1]uint64

func init() {
	for k := 1; k <= MaxN; k++ {
		smallInvP1[k] = invmod(uint64(k), P1)
		smallInvP2[k] = invmod(uint64(k), P2)
	}
}

// fastInv returns the inverse of small k for p, falling back to Fermat for
// other moduli.
func fastInv(k int, p uint64) uint64 {
	if k <= MaxN {
		switch p {
		case P1:
			return smallInvP1[k]
		case P2:
			return smallInvP2[k]
		}
	}
	return invmod(uint64(k), p)
}

// invmod returns the modular inverse of a (mod prime p) by Fermat's little
// theorem. a must be nonzero mod p.
func invmod(a, p uint64) uint64 {
	// a^(p-2) mod p
	result := uint64(1)
	base := a % p
	e := p - 2
	for e > 0 {
		if e&1 == 1 {
			result = mulmod(result, base, p)
		}
		base = mulmod(base, base, p)
		e >>= 1
	}
	return result
}

// CharPolyMod computes the characteristic polynomial det(λI − A) of the n×n
// matrix a (row-major, entries already reduced mod p) over GF(p) by
// Faddeev–LeVerrier. The returned slice c has length n+1 with
// c[i] = coefficient of λ^i (c[n] = 1).
//
// Faddeev–LeVerrier recurrence (paper Algorithm 1, lines 19–26):
//
//	M₁ = A,              c_{n−1} = −tr(M₁)
//	M_k = A·(M_{k−1} + c_{n−k+1}·I),   c_{n−k} = −tr(M_k)/k
func CharPolyMod(a []uint64, n int, p uint64) []uint64 {
	return CharPolyModInto(make([]uint64, n+1), a, n, p)
}

// CharPolyModInto is CharPolyMod writing into dst (length n+1), letting hot
// callers reuse one buffer across calls.
func CharPolyModInto(dst []uint64, a []uint64, n int, p uint64) []uint64 {
	if n == 0 {
		dst = dst[:1]
		dst[0] = 1 % p
		return dst
	}
	c := dst[:n+1]
	c[n] = 1 % p

	var m, tmp [MaxN * MaxN]uint64
	copy(m[:n*n], a[:n*n])
	c[n-1] = submod(0, traceMod(m[:], n, p), p)

	for k := 2; k <= n; k++ {
		// tmp = M + c[n−k+1]·I
		copy(tmp[:n*n], m[:n*n])
		for i := 0; i < n; i++ {
			tmp[i*n+i] = addmod(tmp[i*n+i], c[n-k+1], p)
		}
		// M = A·tmp
		matMulMod(m[:], a, tmp[:], n, p)
		tr := traceMod(m[:], n, p)
		c[n-k] = submod(0, mulmod(tr, fastInv(k, p), p), p)
	}
	return c
}

func traceMod(m []uint64, n int, p uint64) uint64 {
	t := uint64(0)
	for i := 0; i < n; i++ {
		t = addmod(t, m[i*n+i]%p, p)
	}
	return t
}

func matMulMod(dst []uint64, a, b []uint64, n int, p uint64) {
	var out [MaxN * MaxN]uint64
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var s uint64
			for k := 0; k < n; k++ {
				// a is a pattern's adjacency matrix: mostly zeros.
				if aik := a[i*n+k]; aik != 0 {
					s = addmod(s, mulmod(aik, b[k*n+j], p), p)
				}
			}
			out[i*n+j] = s
		}
	}
	copy(dst[:n*n], out[:n*n])
}

// CharPolyBig computes the exact integer characteristic polynomial of the
// n×n integer matrix a (row-major). Coefficient i of the result multiplies
// λ^i. All Faddeev–LeVerrier divisions are exact over the integers.
func CharPolyBig(a []int64, n int) []*big.Int {
	c := make([]*big.Int, n+1)
	for i := range c {
		c[i] = new(big.Int)
	}
	c[n].SetInt64(1)
	if n == 0 {
		return c
	}
	A := make([]*big.Int, n*n)
	M := make([]*big.Int, n*n)
	for i, v := range a[:n*n] {
		A[i] = big.NewInt(v)
		M[i] = big.NewInt(v)
	}
	c[n-1].Neg(traceBig(M, n))

	tmp := make([]*big.Int, n*n)
	for i := range tmp {
		tmp[i] = new(big.Int)
	}
	for k := 2; k <= n; k++ {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				tmp[i*n+j].Set(M[i*n+j])
				if i == j {
					tmp[i*n+j].Add(tmp[i*n+j], c[n-k+1])
				}
			}
		}
		matMulBig(M, A, tmp, n)
		tr := traceBig(M, n)
		// c[n−k] = −tr/k, an exact division by construction.
		q, r := new(big.Int).QuoRem(tr, big.NewInt(int64(k)), new(big.Int))
		if r.Sign() != 0 {
			panic("linalg: Faddeev–LeVerrier division not exact")
		}
		c[n-k].Neg(q)
	}
	return c
}

func traceBig(m []*big.Int, n int) *big.Int {
	t := new(big.Int)
	for i := 0; i < n; i++ {
		t.Add(t, m[i*n+i])
	}
	return t
}

func matMulBig(dst, a, b []*big.Int, n int) {
	out := make([]*big.Int, n*n)
	prod := new(big.Int)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			s := new(big.Int)
			for k := 0; k < n; k++ {
				s.Add(s, prod.Mul(a[i*n+k], b[k*n+j]))
			}
			out[i*n+j] = s
		}
	}
	copy(dst, out)
}
