package linalg

import (
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

// polyModFromBig reduces an exact big.Int polynomial mod p for comparison.
func polyModFromBig(c []*big.Int, p uint64) []uint64 {
	mod := new(big.Int).SetUint64(p)
	out := make([]uint64, len(c))
	tmp := new(big.Int)
	for i, v := range c {
		tmp.Mod(v, mod)
		out[i] = tmp.Uint64()
	}
	return out
}

func TestMulmod(t *testing.T) {
	cases := []struct{ a, b, p, want uint64 }{
		{0, 0, P1, 0},
		{1, 1, P1, 1},
		{P1 - 1, P1 - 1, P1, 1}, // (-1)·(-1) = 1
		{1 << 60, 1 << 60, P2, mulmodSlow(1<<60, 1<<60, P2)},
		// Unreduced operands: the Mersenne fold must not assume a, b < P1.
		{^uint64(0), ^uint64(0), P1, mulmodSlow(^uint64(0), ^uint64(0), P1)},
		{P1, P1 + 5, P1, 0},
	}
	for _, c := range cases {
		if got := mulmod(c.a, c.b, c.p); got != c.want {
			t.Errorf("mulmod(%d,%d,%d) = %d, want %d", c.a, c.b, c.p, got, c.want)
		}
	}
}

func mulmodSlow(a, b, p uint64) uint64 {
	r := new(big.Int).Mul(new(big.Int).SetUint64(a), new(big.Int).SetUint64(b))
	return r.Mod(r, new(big.Int).SetUint64(p)).Uint64()
}

func TestMulmodProperty(t *testing.T) {
	f := func(a, b uint64) bool {
		return mulmod(a, b, P1) == mulmodSlow(a, b, P1) &&
			mulmod(a%P1, b%P1, P1) == mulmodSlow(a%P1, b%P1, P1) &&
			mulmod(a%P2, b%P2, P2) == mulmodSlow(a%P2, b%P2, P2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestInvmod(t *testing.T) {
	for _, p := range []uint64{P1, P2} {
		for a := uint64(1); a <= 100; a++ {
			inv := invmod(a, p)
			if mulmod(a, inv, p) != 1 {
				t.Fatalf("invmod(%d, %d) wrong", a, p)
			}
		}
	}
}

func TestCharPolyKnown2x2(t *testing.T) {
	// A = [[0,1],[1,0]]: char poly λ² − 1.
	a := []int64{0, 1, 1, 0}
	c := CharPolyBig(a, 2)
	want := []int64{-1, 0, 1}
	for i, w := range want {
		if c[i].Int64() != w {
			t.Fatalf("coeff %d = %v, want %d", i, c[i], w)
		}
	}
}

func TestCharPolyKnownTriangle(t *testing.T) {
	// Adjacency matrix of K3: char poly λ³ − 3λ − 2.
	a := []int64{
		0, 1, 1,
		1, 0, 1,
		1, 1, 0,
	}
	c := CharPolyBig(a, 3)
	want := []int64{-2, -3, 0, 1}
	for i, w := range want {
		if c[i].Int64() != w {
			t.Fatalf("coeff %d = %v, want %d", i, c[i], w)
		}
	}
}

func TestCharPolyPath3(t *testing.T) {
	// Path a–b–c: char poly λ³ − 2λ.
	a := []int64{
		0, 1, 0,
		1, 0, 1,
		0, 1, 0,
	}
	c := CharPolyBig(a, 3)
	want := []int64{0, -2, 0, 1}
	for i, w := range want {
		if c[i].Int64() != w {
			t.Fatalf("coeff %d = %v, want %d", i, c[i], w)
		}
	}
}

func TestCharPolyEmptyAndIdentityEdge(t *testing.T) {
	c := CharPolyBig(nil, 0)
	if len(c) != 1 || c[0].Int64() != 1 {
		t.Fatalf("n=0: got %v", c)
	}
	cm := CharPolyMod(nil, 0, P1)
	if len(cm) != 1 || cm[0] != 1 {
		t.Fatalf("n=0 mod: got %v", cm)
	}
	// 1x1 matrix [w]: λ − w.
	cw := CharPolyBig([]int64{5}, 1)
	if cw[0].Int64() != -5 || cw[1].Int64() != 1 {
		t.Fatalf("n=1: got %v", cw)
	}
}

// TestCharPolyModMatchesBig is the central correctness property: the modular
// fingerprint equals the exact polynomial reduced mod p, for random symmetric
// weighted matrices up to MaxN.
func TestCharPolyModMatchesBig(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(MaxN)
		ai := make([]int64, n*n)
		au := make([]uint64, n*n)
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				w := int64(rng.Intn(5000)) // label-pair weights are small positives
				ai[i*n+j], ai[j*n+i] = w, w
				au[i*n+j], au[j*n+i] = uint64(w), uint64(w)
			}
		}
		exact := CharPolyBig(ai, n)
		for _, p := range []uint64{P1, P2} {
			got := CharPolyMod(au, n, p)
			want := polyModFromBig(exact, p)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("trial %d n=%d p=%d coeff %d: got %d want %d (matrix %v)",
						trial, n, p, i, got[i], want[i], ai)
				}
			}
		}
	}
}

// TestCharPolyPermutationInvariant: simultaneous row/col permutation leaves
// the characteristic polynomial unchanged (similar matrices).
func TestCharPolyPermutationInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(321))
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.Intn(MaxN-1)
		a := make([]uint64, n*n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				w := uint64(rng.Intn(100))
				a[i*n+j], a[j*n+i] = w, w
			}
		}
		perm := rng.Perm(n)
		b := make([]uint64, n*n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				b[perm[i]*n+perm[j]] = a[i*n+j]
			}
		}
		pa := CharPolyMod(a, n, P1)
		pb := CharPolyMod(b, n, P1)
		for i := range pa {
			if pa[i] != pb[i] {
				t.Fatalf("trial %d: permutation changed char poly", trial)
			}
		}
	}
}

func BenchmarkCharPolyMod8(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	n := 8
	a := make([]uint64, n*n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			w := uint64(rng.Intn(1000))
			a[i*n+j], a[j*n+i] = w, w
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		CharPolyMod(a, n, P1)
	}
}

func BenchmarkCharPolyBig8(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	n := 8
	a := make([]int64, n*n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			w := int64(rng.Intn(1000))
			a[i*n+j], a[j*n+i] = w, w
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		CharPolyBig(a, n)
	}
}
