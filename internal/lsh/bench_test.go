package lsh

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/sparse"
	"repro/internal/vecmath"
)

// Benchmark shapes mirror the paper architecture's rebuild-side hashing:
// K*L functions over the hidden width (dense neuron rows) and sparse
// query inputs at delicious-scale density.
const (
	benchDim  = 128
	benchK    = 6
	benchL    = 16
	benchRows = 256
	benchNNZ  = 24
)

func benchFamily(b *testing.B, kind Kind) Family {
	b.Helper()
	fam, err := New(kind, Params{Dim: benchDim, K: benchK, L: benchL, Seed: 0xbe7c})
	if err != nil {
		b.Fatal(err)
	}
	return fam
}

func benchBlock(rows int) []float32 {
	r := rand.New(rand.NewSource(42))
	block := make([]float32, rows*benchDim)
	for i := range block {
		if r.Float64() < 0.8 {
			block[i] = float32(r.NormFloat64())
		}
	}
	return block
}

// BenchmarkHashDense measures the per-row dense entry point (one neuron
// weight row per op), per family.
func BenchmarkHashDense(b *testing.B) {
	block := benchBlock(benchRows)
	for _, kind := range allKinds() {
		b.Run(kind.String(), func(b *testing.B) {
			fam := benchFamily(b, kind)
			out := make([]uint32, fam.NumFuncs())
			b.SetBytes(int64(benchDim * 4))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				row := (i % benchRows) * benchDim
				fam.HashDense(block[row:row+benchDim], out)
			}
		})
	}
}

// BenchmarkHashDenseRows measures the batched rebuild-side entry point
// over a full row block (benchRows rows per op) — the entry point every
// table rebuild feeds its row chunks to. Compare per-row throughput against
// BenchmarkHashDense.
func BenchmarkHashDenseRows(b *testing.B) {
	block := benchBlock(benchRows)
	for _, kind := range allKinds() {
		b.Run(fmt.Sprintf("%s-rows%d", kind, benchRows), func(b *testing.B) {
			fam := benchFamily(b, kind)
			out := make([]uint32, benchRows*fam.NumFuncs())
			b.SetBytes(int64(benchRows * benchDim * 4))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fam.HashDenseRows(block, benchRows, out)
			}
		})
	}
}

// BenchmarkHashSparse measures the query-side sparse entry point (one
// active-feature input per op), per family.
func BenchmarkHashSparse(b *testing.B) {
	r := rand.New(rand.NewSource(43))
	idx := make([]int32, 0, benchNNZ)
	seen := map[int32]bool{}
	for len(idx) < benchNNZ {
		i := int32(r.Intn(benchDim))
		if !seen[i] {
			seen[i] = true
			idx = append(idx, i)
		}
	}
	val := make([]float32, benchNNZ)
	for i := range val {
		val[i] = float32(r.NormFloat64())
	}
	x := sparse.Vector{Dim: benchDim, Idx: idx, Val: val}
	for _, kind := range allKinds() {
		b.Run(kind.String(), func(b *testing.B) {
			fam := benchFamily(b, kind)
			out := make([]uint32, fam.NumFuncs())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fam.HashSparse(x, out)
			}
		})
	}
}

// workloadShapes are the benchmark's two sampled output layers over the
// 128-wide hidden layer: train_converge (Simhash, K7·L30) and train_xwide
// (DWTA, K8·L50), at the default density and bin size.
var workloadShapes = []struct {
	name string
	kind Kind
	k, l int
}{
	{"converge-simhash", KindSimhash, 7, 30},
	{"xwide-dwta", KindDWTA, 8, 50},
}

// BenchmarkHashWorkloads times one query (HashDense on one row) and one
// rebuild block (HashDenseRows, ns/op ÷ benchRows per row) at each workload
// shape, on the Go kernels (vecmath.Unrolled off) and as dispatched — the
// AVX2 lane kernels where the CPU has them, the Go kernels elsewhere.
func BenchmarkHashWorkloads(b *testing.B) {
	block := benchBlock(benchRows)
	defer func(u bool) { vecmath.Unrolled = u }(vecmath.Unrolled)
	for _, ws := range workloadShapes {
		fam, err := New(ws.kind, Params{Dim: benchDim, K: ws.k, L: ws.l, Seed: 0xbe7c})
		if err != nil {
			b.Fatal(err)
		}
		nf := fam.NumFuncs()
		out := make([]uint32, benchRows*nf)
		for _, op := range []string{"query", "rows"} {
			for _, tier := range []string{"go", "avx2"} {
				b.Run(ws.name+"/"+op+"/"+tier, func(b *testing.B) {
					vecmath.Unrolled = tier == "avx2"
					for i := 0; i < b.N; i++ {
						if op == "query" {
							row := (i % benchRows) * benchDim
							fam.HashDense(block[row:row+benchDim], out[:nf])
						} else {
							fam.HashDenseRows(block, benchRows, out)
						}
					}
				})
			}
		}
	}
}
