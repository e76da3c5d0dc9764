package vecmath

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return math.Abs(a-b) <= tol*scale
}

func randVec(r *pcg, n int) []float32 {
	v := make([]float32, n)
	for i := range v {
		v[i] = r.NormFloat32()
	}
	return v
}

// TestDotVariantsAgree: Dot, on either tier, sums in another order than
// one running sum, so the two agree to rounding, not bitwise.
func TestDotVariantsAgree(t *testing.T) {
	if err := quick.Check(func(seed uint64, nRaw uint8) bool {
		n := int(nRaw) % 200
		r := newPCG(seed)
		a, b := randVec(r, n), randVec(r, n)
		var want float32
		for i := range a {
			want += a[i] * b[i]
		}
		return almostEq(float64(Dot(a, b)), float64(want), 1e-4)
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSparseDotVariantsAgree(t *testing.T) {
	if err := quick.Check(func(seed uint64, nRaw uint8) bool {
		r := newPCG(seed)
		w := randVec(r, 256)
		nnz := int(nRaw) % 64
		idx := make([]int32, nnz)
		val := make([]float32, nnz)
		for i := range idx {
			idx[i] = int32(r.Intn(256))
			val[i] = r.NormFloat32()
		}
		var want float32
		for j, i := range idx {
			want += val[j] * w[i]
		}
		return almostEq(float64(SparseDot(idx, val, w)), float64(want), 1e-4)
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSparseDotMatchesDenseDot(t *testing.T) {
	r := newPCG(2)
	w := randVec(r, 128)
	dense := make([]float32, 128)
	var idx []int32
	var val []float32
	for i := 0; i < 20; i++ {
		j := int32(r.Intn(128))
		v := r.NormFloat32()
		idx = append(idx, j)
		val = append(val, v)
		dense[j] += v
	}
	if !almostEq(float64(SparseDot(idx, val, w)), float64(Dot(dense, w)), 1e-4) {
		t.Fatalf("SparseDot %v != Dot %v", SparseDot(idx, val, w), Dot(dense, w))
	}
}

// TestAxpyVariantsAgree: Axpy is element-wise, one rounded multiply and
// add per cell, so on either tier it is bitwise the plain loop.
func TestAxpyVariantsAgree(t *testing.T) {
	if err := quick.Check(func(seed uint64, nRaw uint8, alpha float32) bool {
		n := int(nRaw) % 100
		if math.IsNaN(float64(alpha)) || math.IsInf(float64(alpha), 0) {
			alpha = 1.5
		}
		alpha = float32(math.Mod(float64(alpha), 8)) // keep products finite
		r := newPCG(seed)
		x := randVec(r, n)
		y1 := randVec(r, n)
		y2 := append([]float32(nil), y1...)
		for i := range x {
			y1[i] += alpha * x[i]
		}
		Axpy(alpha, x, y2)
		return slices.Equal(y1, y2)
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSparseAxpy(t *testing.T) {
	y := make([]float32, 8)
	SparseAxpy(2, []int32{1, 3, 1}, []float32{1, 2, 3}, y)
	want := []float32{0, 8, 0, 4, 0, 0, 0, 0}
	for i := range want {
		if y[i] != want[i] {
			t.Fatalf("y = %v, want %v", y, want)
		}
	}
}

// TestDotBiasReLUMatchesUnfused: the fused forward kernel must equal the
// composition of its parts (dot, bias add, ReLU clamp) for both the dense
// and the sparse input form.
func TestDotBiasReLUMatchesUnfused(t *testing.T) {
	if err := quick.Check(func(seed uint64, nRaw uint8, b float32) bool {
		n := int(nRaw) % 200
		if math.IsNaN(float64(b)) || math.IsInf(float64(b), 0) {
			b = 0.25
		}
		b = float32(math.Mod(float64(b), 4))
		r := newPCG(seed)
		w, x := randVec(r, n), randVec(r, n)
		want := b + Dot(w, x)
		if want < 0 {
			want = 0
		}
		return DotBiasReLU(b, w, x) == want
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSparseDotBiasReLUMatchesUnfused(t *testing.T) {
	if err := quick.Check(func(seed uint64, nRaw uint8) bool {
		r := newPCG(seed)
		w := randVec(r, 256)
		nnz := int(nRaw) % 64
		idx := make([]int32, nnz)
		val := make([]float32, nnz)
		for i := range idx {
			idx[i] = int32(r.Intn(256))
			val[i] = r.NormFloat32()
		}
		b := r.NormFloat32()
		want := b + SparseDot(idx, val, w)
		if want < 0 {
			want = 0
		}
		return SparseDotBiasReLU(b, idx, val, w) == want
	}, nil); err != nil {
		t.Fatal(err)
	}
}

// TestOuterAccMatchesScalarLoops: the fused backward kernel, as
// dispatched and as the unrolled Go kernel, must be bit-identical to the
// separate acc/gradient scalar loops it replaces — every cell receives
// exactly one add in both formulations.
func TestOuterAccMatchesScalarLoops(t *testing.T) {
	if err := quick.Check(func(seed uint64, nRaw uint8, d float32) bool {
		n := int(nRaw) % 100
		if math.IsNaN(float64(d)) || math.IsInf(float64(d), 0) {
			d = 0.5
		}
		d = float32(math.Mod(float64(d), 8))
		r := newPCG(seed)
		x, w := randVec(r, n), randVec(r, n)
		g1, acc1 := randVec(r, n), randVec(r, n)
		g2 := append([]float32(nil), g1...)
		acc2 := append([]float32(nil), acc1...)
		g3 := append([]float32(nil), g1...)
		acc3 := append([]float32(nil), acc1...)
		for i := range x { // the pre-fusion reference loops
			acc1[i] += d * w[i]
			g1[i] += d * x[i]
		}
		OuterAcc(d, x, w, g2, acc2)
		outerAccUnrolled(d, x, w, g3, acc3)
		for i := range x {
			if g1[i] != g2[i] || acc1[i] != acc2[i] || g1[i] != g3[i] || acc1[i] != acc3[i] {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

// TestSparseAndIndexedAxpy checks the gradient replay's sparse kernels
// against their reference loop, including a repeated index (the gradient
// column must accumulate both contributions): SparseAxpy writes column
// idx[t], IndexedAxpy the compact position pos[t] of the same column.
func TestSparseAndIndexedAxpy(t *testing.T) {
	idx := []int32{1, 3, 1}
	pos := []int32{0, 1, 0} // idx in the compact column list [1, 3]
	val := []float32{1, 2, 3}
	g := make([]float32, 4)
	SparseAxpy(2, idx, val, g)
	if want := []float32{0, 8, 0, 4}; !slices.Equal(g, want) {
		t.Fatalf("SparseAxpy: g = %v, want %v", g, want)
	}
	compact := make([]float32, 2)
	IndexedAxpy(2, pos, val, compact)
	if want := []float32{8, 4}; !slices.Equal(compact, want) {
		t.Fatalf("IndexedAxpy: g = %v, want %v", compact, want)
	}
}

func TestSoftmaxProperties(t *testing.T) {
	if err := quick.Check(func(seed uint64, nRaw uint8) bool {
		n := int(nRaw)%50 + 1
		r := newPCG(seed)
		x := randVec(r, n)
		big := vecIdxMax(x)
		Softmax(x)
		var sum float64
		for _, v := range x {
			if v < 0 || v > 1 {
				return false
			}
			sum += float64(v)
		}
		// Sums to 1 and preserves the argmax.
		return math.Abs(sum-1) < 1e-4 && ArgMax(x) == big
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func vecIdxMax(x []float32) int {
	best, bi := x[0], 0
	for i, v := range x[1:] {
		if v > best {
			best, bi = v, i+1
		}
	}
	return bi
}

func TestSoftmaxStability(t *testing.T) {
	x := []float32{1000, 1001, 999}
	Softmax(x)
	for _, v := range x {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			t.Fatalf("softmax overflowed: %v", x)
		}
	}
	if ArgMax(x) != 1 {
		t.Fatalf("argmax shifted: %v", x)
	}
}

func TestReLU(t *testing.T) {
	x := []float32{-1, 0, 2, -0.5}
	ReLU(x)
	want := []float32{0, 0, 2, 0}
	for i := range want {
		if x[i] != want[i] {
			t.Fatalf("ReLU = %v, want %v", x, want)
		}
	}
}

func TestArgMaxTieBreak(t *testing.T) {
	if got := ArgMax([]float32{1, 3, 3, 2}); got != 1 {
		t.Fatalf("ArgMax tie = %d, want lowest index 1", got)
	}
}

func TestDotLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Dot length mismatch did not panic")
		}
	}()
	Dot([]float32{1}, []float32{1, 2})
}

func TestScale(t *testing.T) {
	x := []float32{1, 2, 3}
	Scale(2, x)
	if x[2] != 6 {
		t.Fatalf("Scale: %v", x)
	}
}

func TestNorm2(t *testing.T) {
	if v := Norm2([]float32{3, 4}); !almostEq(float64(v), 5, 1e-6) {
		t.Fatalf("Norm2 = %v", v)
	}
}

// TestMaxIsArgMaxElement: Max is the element ArgMax names, and both panic
// on an empty slice.
func TestMaxIsArgMaxElement(t *testing.T) {
	if err := quick.Check(func(seed uint64, nRaw uint8) bool {
		x := randVec(newPCG(seed), 1+int(nRaw)%64)
		return Max(x) == x[ArgMax(x)]
	}, nil); err != nil {
		t.Fatal(err)
	}
	for name, f := range map[string]func([]float32){
		"Max":    func(x []float32) { Max(x) },
		"ArgMax": func(x []float32) { ArgMax(x) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s of an empty slice did not panic", name)
				}
			}()
			f(nil)
		}()
	}
}

// TestPrefetchChangesNothing: Prefetch reads and writes no value, on an
// empty slice, a short one and one past maxPrefetch bytes, of float32s
// and of bfloat16 moments.
func TestPrefetchChangesNothing(t *testing.T) {
	r := newPCG(3)
	for _, n := range []int{0, 1, 7, maxPrefetch/4 + 9, maxPrefetch/2 + 9} {
		x := randVec(r, n)
		want := slices.Clone(x)
		Prefetch(x)
		if !slices.Equal(x, want) {
			t.Fatalf("n=%d: Prefetch changed the slice", n)
		}
		h := make([]uint16, n)
		for i := range h {
			h[i] = uint16(r.Uint32())
		}
		wantH := slices.Clone(h)
		Prefetch(h)
		if !slices.Equal(h, wantH) {
			t.Fatalf("n=%d: Prefetch changed the bfloat16 slice", n)
		}
	}
}
