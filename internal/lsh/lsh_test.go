package lsh

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
	"repro/internal/sparse"
)

func allKinds() []Kind { return []Kind{KindSimhash, KindWTA, KindDWTA, KindDOPH} }

func mkFamily(t testing.TB, kind Kind, dim, k, l int, seed uint64) Family {
	t.Helper()
	fam, err := New(kind, Params{Dim: dim, K: k, L: l, Seed: seed})
	if err != nil {
		t.Fatalf("New(%v): %v", kind, err)
	}
	return fam
}

func randDense(r *rng.RNG, dim int, density float64) []float32 {
	v := make([]float32, dim)
	for i := range v {
		if r.Bernoulli(density) {
			v[i] = r.NormFloat32()
		}
	}
	return v
}

// TestCodesWithinRange: every family's codes fit in CodeBits bits.
func TestCodesWithinRange(t *testing.T) {
	for _, kind := range allKinds() {
		fam := mkFamily(t, kind, 64, 4, 8, 11)
		limit := uint32(1) << uint(fam.CodeBits())
		r := rng.New(3)
		out := make([]uint32, fam.NumFuncs())
		for trial := 0; trial < 50; trial++ {
			fam.HashDense(randDense(r, 64, 0.3), out)
			for f, c := range out {
				if c >= limit {
					t.Fatalf("%v: code[%d]=%d exceeds %d bits", kind, f, c, fam.CodeBits())
				}
			}
		}
	}
}

// TestDenseSparseConsistency: hashing the same vector through the dense
// and sparse paths must give identical codes (the network hashes neurons
// densely at build time and inputs sparsely at query time).
func TestDenseSparseConsistency(t *testing.T) {
	for _, kind := range allKinds() {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			fam := mkFamily(t, kind, 96, 5, 6, 7)
			if err := quick.Check(func(seed uint64) bool {
				r := rng.New(seed)
				d := randDense(r, 96, 0.2)
				sv := sparse.FromDense(d)
				a := make([]uint32, fam.NumFuncs())
				b := make([]uint32, fam.NumFuncs())
				fam.HashDense(d, a)
				fam.HashSparse(sv, b)
				for f := range a {
					if a[f] != b[f] {
						return false
					}
				}
				return true
			}, &quick.Config{MaxCount: 40}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestHashDeterminism: equal inputs hash equally across calls (families
// use pooled scratch internally; no state may leak between calls).
func TestHashDeterminism(t *testing.T) {
	for _, kind := range allKinds() {
		fam := mkFamily(t, kind, 64, 4, 8, 5)
		r := rng.New(9)
		x := randDense(r, 64, 0.4)
		y := randDense(r, 64, 0.4)
		a := make([]uint32, fam.NumFuncs())
		b := make([]uint32, fam.NumFuncs())
		fam.HashDense(x, a)
		fam.HashDense(y, b) // interleave another input
		fam.HashDense(x, b)
		for f := range a {
			if a[f] != b[f] {
				t.Fatalf("%v: non-deterministic code at %d", kind, f)
			}
		}
	}
}

// TestSimhashCollisionMonotone verifies the LSH property (Definition 2.1
// via eqn. 1): empirical collision probability increases with cosine
// similarity, approximating 1 - angle/pi.
func TestSimhashCollisionMonotone(t *testing.T) {
	const dim = 128
	fam := mkFamily(t, KindSimhash, dim, 1, 600, 21) // 600 independent bits
	r := rng.New(33)
	base := randDense(r, dim, 1)
	collisionAt := func(noise float32) float64 {
		y := make([]float32, dim)
		for i := range y {
			y[i] = base[i] + noise*r.NormFloat32()
		}
		a := make([]uint32, fam.NumFuncs())
		b := make([]uint32, fam.NumFuncs())
		fam.HashDense(base, a)
		fam.HashDense(y, b)
		same := 0
		for f := range a {
			if a[f] == b[f] {
				same++
			}
		}
		return float64(same) / float64(fam.NumFuncs())
	}
	pClose := collisionAt(0.1)
	pMid := collisionAt(0.7)
	pFar := collisionAt(4)
	if !(pClose > pMid && pMid > pFar) {
		t.Fatalf("collision not monotone in similarity: %.3f, %.3f, %.3f", pClose, pMid, pFar)
	}
	if pClose < 0.85 {
		t.Fatalf("near-identical vectors collide only %.3f", pClose)
	}
	// Random vs random should be near 0.5 for sign bits.
	if pFar < 0.4 || pFar > 0.75 {
		t.Fatalf("far vectors collision %.3f outside plausible band", pFar)
	}
}

// TestSimhashTheoreticalRate checks the closed form 1 - theta/pi against
// the empirical rate on controlled-angle vector pairs.
func TestSimhashTheoreticalRate(t *testing.T) {
	const dim = 256
	fam := mkFamily(t, KindSimhash, dim, 1, 2000, 77)
	r := rng.New(5)
	// Build a pair with known angle via Gram-Schmidt.
	u := randDense(r, dim, 1)
	v := randDense(r, dim, 1)
	normalize(u)
	dot := dotf(u, v)
	for i := range v {
		v[i] -= dot * u[i]
	}
	normalize(v)
	for _, cosTheta := range []float64{0.9, 0.5, 0.1} {
		y := make([]float32, dim)
		s := math.Sqrt(1 - cosTheta*cosTheta)
		for i := range y {
			y[i] = float32(cosTheta)*u[i] + float32(s)*v[i]
		}
		a := make([]uint32, fam.NumFuncs())
		b := make([]uint32, fam.NumFuncs())
		fam.HashDense(u, a)
		fam.HashDense(y, b)
		same := 0
		for f := range a {
			if a[f] == b[f] {
				same++
			}
		}
		got := float64(same) / float64(fam.NumFuncs())
		want := 1 - math.Acos(cosTheta)/math.Pi
		// Sparse random projections add variance; allow a loose band.
		if math.Abs(got-want) > 0.08 {
			t.Errorf("cos=%.1f: collision %.3f, theory %.3f", cosTheta, got, want)
		}
	}
}

func normalize(x []float32) {
	var s float64
	for _, v := range x {
		s += float64(v) * float64(v)
	}
	inv := float32(1 / math.Sqrt(s))
	for i := range x {
		x[i] *= inv
	}
}

func dotf(a, b []float32) float32 {
	var s float32
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// TestDWTAMoreSimilarMoreCollisions: rank-correlated vectors collide more.
func TestDWTAMoreSimilarMoreCollisions(t *testing.T) {
	const dim = 128
	fam := mkFamily(t, KindDWTA, dim, 1, 400, 13)
	r := rng.New(2)
	base := randDense(r, dim, 0.2)
	perturb := func(noise float32) []float32 {
		y := append([]float32(nil), base...)
		for i := range y {
			if y[i] != 0 {
				y[i] += noise * r.NormFloat32()
			}
		}
		return y
	}
	rate := func(y []float32) float64 {
		a := make([]uint32, fam.NumFuncs())
		b := make([]uint32, fam.NumFuncs())
		fam.HashDense(base, a)
		fam.HashDense(y, b)
		same := 0
		for f := range a {
			if a[f] == b[f] {
				same++
			}
		}
		return float64(same) / float64(fam.NumFuncs())
	}
	pNear := rate(perturb(0.05))
	pFar := rate(randDense(r, dim, 0.2))
	if pNear <= pFar {
		t.Fatalf("DWTA not similarity-sensitive: near %.3f <= far %.3f", pNear, pFar)
	}
	if pNear < 0.7 {
		t.Fatalf("DWTA near-duplicate collision too low: %.3f", pNear)
	}
}

// TestDOPHJaccardSensitivity: overlapping top-k sets collide more than
// disjoint ones.
func TestDOPHJaccardSensitivity(t *testing.T) {
	const dim = 256
	fam, err := New(KindDOPH, Params{Dim: dim, K: 1, L: 300, Seed: 3, TopK: 20})
	if err != nil {
		t.Fatal(err)
	}
	mk := func(ids []int32) sparse.Vector {
		val := make([]float32, len(ids))
		for i := range val {
			val[i] = 1
		}
		return sparse.MustNew(dim, ids, val)
	}
	a := make([]int32, 20)
	b := make([]int32, 20)
	c := make([]int32, 20)
	for i := range a {
		a[i] = int32(i)
		b[i] = int32(i + 5) // Jaccard(a,b) = 15/25
		c[i] = int32(i + 100)
	}
	ca := make([]uint32, fam.NumFuncs())
	cb := make([]uint32, fam.NumFuncs())
	cc := make([]uint32, fam.NumFuncs())
	fam.HashSparse(mk(a), ca)
	fam.HashSparse(mk(b), cb)
	fam.HashSparse(mk(c), cc)
	rate := func(x, y []uint32) float64 {
		same := 0
		for f := range x {
			if x[f] == y[f] {
				same++
			}
		}
		return float64(same) / float64(len(x))
	}
	if overlap, disjoint := rate(ca, cb), rate(ca, cc); overlap <= disjoint+0.1 {
		t.Fatalf("DOPH not Jaccard-sensitive: overlap %.3f vs disjoint %.3f", overlap, disjoint)
	}
}

// TestDWTASparseSemantics: swapping the values of two coordinates that
// share a WTA bin must flip that bin's argmax code. With dim=16 and the
// default bin size 8, two fixed coordinates share a bin in roughly half
// of the permutations, so some codes must differ.
func TestDWTASparseSemantics(t *testing.T) {
	fam := mkFamily(t, KindDWTA, 16, 4, 8, 8)
	v1 := sparse.MustNew(16, []int32{3, 11}, []float32{1, 2})
	v2 := sparse.MustNew(16, []int32{3, 11}, []float32{2, 1})
	a := make([]uint32, fam.NumFuncs())
	b := make([]uint32, fam.NumFuncs())
	fam.HashSparse(v1, a)
	fam.HashSparse(v2, b)
	diff := 0
	for f := range a {
		if a[f] != b[f] {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("DWTA ignored stored values")
	}
}

// TestZeroVector: all families must handle the all-zero input without
// panicking (densification's all-empty fallback).
func TestZeroVector(t *testing.T) {
	for _, kind := range allKinds() {
		fam := mkFamily(t, kind, 32, 3, 4, 4)
		out := make([]uint32, fam.NumFuncs())
		fam.HashDense(make([]float32, 32), out)
		fam.HashSparse(sparse.Vector{Dim: 32}, out)
	}
}

// TestParamValidation covers constructor errors.
func TestParamValidation(t *testing.T) {
	if _, err := New(KindSimhash, Params{Dim: 0, K: 1, L: 1}); err == nil {
		t.Error("zero Dim accepted")
	}
	if _, err := New(KindSimhash, Params{Dim: 8, K: 0, L: 1}); err == nil {
		t.Error("zero K accepted")
	}
	if _, err := New(Kind(99), Params{Dim: 8, K: 1, L: 1}); err == nil {
		t.Error("unknown kind accepted")
	}
}

func TestParseKindRoundTrip(t *testing.T) {
	for _, kind := range allKinds() {
		got, err := ParseKind(kind.String())
		if err != nil || got != kind {
			t.Errorf("ParseKind(%q) = %v, %v", kind.String(), got, err)
		}
	}
	if _, err := ParseKind("nope"); err == nil {
		t.Error("ParseKind accepted garbage")
	}
}

// TestConcurrentHashing: families share pooled scratch; concurrent use
// must stay correct.
func TestConcurrentHashing(t *testing.T) {
	for _, kind := range allKinds() {
		fam := mkFamily(t, kind, 64, 4, 6, 15)
		r := rng.New(1)
		x := randDense(r, 64, 0.3)
		want := make([]uint32, fam.NumFuncs())
		fam.HashDense(x, want)
		done := make(chan bool, 8)
		for g := 0; g < 8; g++ {
			go func() {
				ok := true
				out := make([]uint32, fam.NumFuncs())
				for i := 0; i < 200; i++ {
					fam.HashDense(x, out)
					for f := range want {
						if out[f] != want[f] {
							ok = false
						}
					}
				}
				done <- ok
			}()
		}
		for g := 0; g < 8; g++ {
			if !<-done {
				t.Fatalf("%v: concurrent hashing corrupted codes", kind)
			}
		}
	}
}
