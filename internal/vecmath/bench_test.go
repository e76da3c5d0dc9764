package vecmath

import (
	"fmt"
	"slices"
	"testing"
)

// Kernels on the network's hot shapes (the 128-wide hidden fan-in of the
// output layer). The row kernels' Go and AVX2 tiers are timed side by
// side further down (benchTiers).

var benchSink float32

func benchVecs(n int) ([]float32, []float32) {
	r := newPCG(1)
	a := make([]float32, n)
	b := make([]float32, n)
	for i := range a {
		a[i] = r.NormFloat32()
		b[i] = r.NormFloat32()
	}
	return a, b
}

func BenchmarkSparseDot64of4096(b *testing.B) {
	r := newPCG(2)
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
		benchSink += SparseDot(idx, val, w)
	}
}

// Fused-kernel shape: one active output neuron's forward step over the
// 128-wide hidden input (gather form).

func BenchmarkDotBiasReLU128(b *testing.B) {
	x, y := benchVecs(128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink += DotBiasReLU(0.1, x, y)
	}
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
	r := newPCG(3)
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

// BenchmarkDotRowsGathered is a forward gather over a slab larger than L2:
// 320 ascending random rows of a 20.5K × 128 layer (serve_open's output
// layer, 10.5 MB) against 320 sequential rows, each call on another set of
// rows, so they are not left in L1 or L2 by the call before. ns/op ÷ 320
// is ns per row.
func BenchmarkDotRowsGathered(b *testing.B) {
	const rows, active, sets = 20480, 320, 64
	r := newPCG(7)
	slab := make([]float32, rows*128)
	for i := range slab {
		slab[i] = r.NormFloat32()
	}
	w := make([][]float32, rows)
	for j := range w {
		w[j] = slab[j*128 : (j+1)*128]
	}
	gathered := make([][]int32, sets)
	for s := range gathered {
		ids := make([]int32, 0, active)
		for _, j := range r.Perm(rows)[:active] {
			ids = append(ids, int32(j))
		}
		slices.Sort(ids)
		gathered[s] = ids
	}
	x, dst := randVec(r, 128), make([]float32, active)
	b.Run("gathered", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			DotRows(dst, w, gathered[i%sets], x)
		}
	})
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			first := i * active % (rows - active)
			DotRows(dst, w[first:first+active], nil, x)
		}
	})
}

func BenchmarkAxpy(b *testing.B) {
	x, y := benchVecs(128)
	benchTiers(b, func() { Axpy(1e-9, x, y) })
}

// BenchmarkAxpyRows sums 128-wide rows at the hot loops' term counts:
// a first-layer scatter (8 features), an update-phase replay row (44
// elements) and a backward activation gradient (318 active neurons).
// ns/op ÷ terms is ns per term, comparable with BenchmarkAxpy's ns/op.
func BenchmarkAxpyRows(b *testing.B) {
	const nRows = 6144
	r := newPCG(6)
	rows := make([][]float32, nRows)
	for j := range rows {
		rows[j] = randVec(r, 128)
	}
	dst := make([]float32, 128)
	for _, nTerms := range []int{8, 44, 318} {
		terms := make([]Term, nTerms)
		for k := range terms {
			terms[k] = Term{K: int32(r.Intn(nRows)), Coef: 1e-9}
		}
		b.Run(fmt.Sprintf("terms=%d", nTerms), func(b *testing.B) {
			benchTiers(b, func() { AxpyRows(dst, rows, terms) })
		})
	}
}

func BenchmarkOuterAcc(b *testing.B) {
	x, w := benchVecs(128)
	g, acc := benchVecs(128)
	benchTiers(b, func() { OuterAcc(1e-9, x, w, g, acc) })
}

func BenchmarkAdamStep(b *testing.B) {
	w, g := benchVecs(128)
	m, v := make([]float32, 128), make([]float32, 128)
	benchTiers(b, func() { AdamStep(w, m, v, g, 0.9, 0.999, 1e-8, 1e-4) })
}

func BenchmarkAdamStepBF16(b *testing.B) {
	w, g := benchVecs(128)
	m, v := make([]uint16, 128), make([]uint16, 128)
	benchTiers(b, func() { AdamStepBF16(w, m, v, g, 0x5eed, 1, 0.9, 0.999, 1e-8, 1e-4) })
}

// The hash kernels at the benchmark workloads' shapes over a 128-wide
// input: one train_converge Simhash query (K7·L30 = 210 functions of 42
// coordinates) and one train_xwide DWTA row (K8·L50 = 400 bins of 8).

func BenchmarkSignedSums(b *testing.B) {
	r := newPCG(4)
	slab, _, _ := randLaneSlab(r, 128, 210, 42, true)
	x, dst := randVec(r, 128), make([]float32, 210)
	benchTiers(b, func() { slab.SignedSums(dst, x) })
}

func BenchmarkNonZeroArgMax(b *testing.B) {
	r := newPCG(5)
	slab, _, _ := randLaneSlab(r, 128, 400, 8, false)
	x, dst := randVec(r, 128), make([]uint32, 400)
	benchTiers(b, func() { slab.NonZeroArgMax(dst, x) })
}

// The block kernels at the same shapes, per block of eight rows: divide
// by 8 to compare with the row kernels above per row.

func BenchmarkSignedSumsBlock(b *testing.B) {
	r := newPCG(4)
	slab, _, _ := randLaneSlab(r, 128, 210, 42, true)
	xt, dst := randVec(r, 8*128), make([]float32, 8*210)
	benchTiers(b, func() { slab.SignedSumsBlock(dst, xt) })
}

func BenchmarkNonZeroArgMaxBlock(b *testing.B) {
	r := newPCG(5)
	slab, _, _ := randLaneSlab(r, 128, 400, 8, false)
	xt, dst := randVec(r, 8*128), make([]uint32, 8*400)
	benchTiers(b, func() { slab.NonZeroArgMaxBlock(dst, xt) })
}

func BenchmarkTranspose8(b *testing.B) {
	r := newPCG(6)
	rows, xt := randVec(r, 8*128), make([]float32, 8*128)
	benchTiers(b, func() { Transpose8(xt, rows, 128) })
}

// BenchmarkAddresses is a train_xwide-shaped block's addresses: K 8,
// L 50, mixed (8 × 3-bit codes past RangePow 12) and packed.
func BenchmarkAddresses(b *testing.B) {
	r := newPCG(7)
	codes, dst := make([]uint32, 8*400), make([]uint32, 100*64)
	for i := range codes {
		codes[i] = r.Uint32() & 7
	}
	b.Run("mixed", func(b *testing.B) {
		benchTiers(b, func() { MixAddresses(dst, 64, 8, codes, 8, 50, 1, 1<<12-1) })
	})
	b.Run("packed", func(b *testing.B) {
		benchTiers(b, func() { PackAddresses(dst, 64, 8, codes, 4, 100, 3) })
	})
}
