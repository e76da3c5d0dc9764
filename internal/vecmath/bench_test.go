package vecmath

import (
	"testing"

	"repro/internal/rng"
)

// Kernel-level half of the Fig. 10 ablation: the unrolled ("SIMD") kernels
// against their scalar counterparts on the network's hot shapes (the
// 128-wide hidden fan-in of the output layer).

var benchSink float32

func benchVecs(n int) ([]float32, []float32) {
	r := rng.New(1)
	a := make([]float32, n)
	b := make([]float32, n)
	for i := range a {
		a[i] = r.NormFloat32()
		b[i] = r.NormFloat32()
	}
	return a, b
}

func BenchmarkDotScalar128(b *testing.B) {
	x, y := benchVecs(128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink += dotScalar(x, y)
	}
}

func BenchmarkDotUnrolled128(b *testing.B) {
	x, y := benchVecs(128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink += dotUnrolled(x, y)
	}
}

func BenchmarkAxpyScalar128(b *testing.B) {
	x, y := benchVecs(128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		axpyScalar(0.5, x, y)
	}
}

func BenchmarkAxpyUnrolled128(b *testing.B) {
	x, y := benchVecs(128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		axpyUnrolled(0.5, x, y)
	}
}

func BenchmarkSparseDot64of4096(b *testing.B) {
	r := rng.New(2)
	w := make([]float32, 4096)
	for i := range w {
		w[i] = r.NormFloat32()
	}
	idx := make([]int32, 64)
	val := make([]float32, 64)
	for i := range idx {
		idx[i] = int32(r.Intn(4096))
		val[i] = r.NormFloat32()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink += sparseDotUnrolled(idx, val, w)
	}
}

// Fused-kernel shapes: one active output neuron's forward step over the
// 128-wide hidden input (gather form), and one backward row update.

func BenchmarkDotBiasReLU128(b *testing.B) {
	x, y := benchVecs(128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink += DotBiasReLU(0.1, x, y)
	}
}

func BenchmarkOuterAccScalar128(b *testing.B) {
	x, w := benchVecs(128)
	g, acc := benchVecs(128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		outerAccScalar(0.5, x, w, g, acc)
	}
	benchSink += g[0] + acc[0]
}

func BenchmarkOuterAccUnrolled128(b *testing.B) {
	x, w := benchVecs(128)
	g, acc := benchVecs(128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		outerAccUnrolled(0.5, x, w, g, acc)
	}
	benchSink += g[0] + acc[0]
}

func BenchmarkSoftmax1024(b *testing.B) {
	x, _ := benchVecs(1024)
	buf := make([]float32, len(x))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, x)
		Softmax(buf)
	}
	benchSink += buf[0]
}

// The Go → AVX2 table in README "Hot path": each exported entry point at
// the network's hot shape (128-wide rows), once on the unrolled Go kernels
// and once on the assembly.

func benchTiers(b *testing.B, op func()) {
	avx2 := hasAVX2
	defer func() { hasAVX2 = avx2 }()
	for _, tier := range []string{"go", "avx2"} {
		b.Run(tier, func(b *testing.B) {
			hasAVX2 = tier == "avx2"
			if hasAVX2 && !avx2 {
				b.Skip("no AVX2 on this machine")
			}
			for i := 0; i < b.N; i++ {
				op()
			}
		})
	}
}

func BenchmarkDot(b *testing.B) {
	x, y := benchVecs(128)
	benchTiers(b, func() { benchSink += Dot(x, y) })
}

// BenchmarkDotRows is one 320-row gather over a 6K-row layer
// (train_converge's mean active set): ns/op ÷ 320 is ns per row.
func BenchmarkDotRows(b *testing.B) {
	const rows, active = 6144, 320
	r := rng.New(3)
	w := make([][]float32, rows)
	for j := range w {
		w[j] = randVec(r, 128)
	}
	ids := make([]int32, active)
	for k := range ids {
		ids[k] = int32(r.Intn(rows))
	}
	x, dst := randVec(r, 128), make([]float32, active)
	benchTiers(b, func() { DotRows(dst, w, ids, x) })
}

func BenchmarkAxpy(b *testing.B) {
	x, y := benchVecs(128)
	benchTiers(b, func() { Axpy(1e-9, x, y) })
}

func BenchmarkOuterAcc(b *testing.B) {
	x, w := benchVecs(128)
	g, acc := benchVecs(128)
	benchTiers(b, func() { OuterAcc(1e-9, x, w, g, acc) })
}

func BenchmarkAdamStep(b *testing.B) {
	w, g := benchVecs(128)
	m, v := make([]float32, 128), make([]float32, 128)
	for _, skipZero := range []bool{false, true} {
		b.Run(map[bool]string{false: "all", true: "skipZero"}[skipZero], func(b *testing.B) {
			benchTiers(b, func() { AdamStep(w, m, v, g, 1, 0.9, 0.999, 1e-8, 1e-4, skipZero) })
		})
	}
}

// The hash kernels at the benchmark workloads' shapes over a 128-wide
// input: one train_converge Simhash query (K7·L30 = 210 functions of 42
// coordinates) and one train_xwide DWTA row (K8·L50 = 400 bins of 8).

func BenchmarkSignedSums(b *testing.B) {
	r := rng.New(4)
	slab, _, _ := randLaneSlab(r, 128, 210, 42, true)
	x, dst := randVec(r, 128), make([]float32, 210)
	benchTiers(b, func() { slab.SignedSums(dst, x) })
}

func BenchmarkNonZeroArgMax(b *testing.B) {
	r := rng.New(5)
	slab, _, _ := randLaneSlab(r, 128, 400, 8, false)
	x, dst := randVec(r, 128), make([]uint32, 400)
	benchTiers(b, func() { slab.NonZeroArgMax(dst, x) })
}
