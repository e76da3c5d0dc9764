package lsh

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/sparse"
)

// TestHashDenseRowsMatchesPerRow is the property test for the batched
// entry point: across random shapes, seeds and densities, HashDenseRows
// over a row block must be bitwise identical to HashDense row by row for
// every family.
func TestHashDenseRowsMatchesPerRow(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		dim := 3 + r.Intn(200)
		p := Params{
			Dim:            dim,
			K:              1 + r.Intn(6),
			L:              1 + r.Intn(8),
			Seed:           r.Uint64(),
			SimhashDensity: 0.05 + r.Float64()*0.9,
			BinSize:        1 + r.Intn(12),
		}
		density := []float64{0, 0.01, 0.1, 0.5, 1}[trial%5]
		rows := 1 + r.Intn(17)
		block := make([]float32, rows*dim)
		for i := range block {
			if r.Float64() < density {
				block[i] = float32(r.NormFloat64())
			}
		}
		for _, kind := range allKinds() {
			fam, err := New(kind, p)
			if err != nil {
				t.Fatalf("trial %d %v: %v", trial, kind, err)
			}
			nf := fam.NumFuncs()
			batched := make([]uint32, rows*nf)
			fam.HashDenseRows(block, rows, batched)
			single := make([]uint32, nf)
			for row := 0; row < rows; row++ {
				fam.HashDense(block[row*dim:(row+1)*dim], single)
				for f := 0; f < nf; f++ {
					if batched[row*nf+f] != single[f] {
						t.Fatalf("trial %d %v dim=%d K=%d L=%d density=%g row=%d func=%d: batched %#x != per-row %#x",
							trial, kind, dim, p.K, p.L, density, row, f, batched[row*nf+f], single[f])
					}
				}
			}
		}
	}
}

// TestHashDenseRowsZeroRows pins the degenerate block: no rows, no codes,
// no panic.
func TestHashDenseRowsZeroRows(t *testing.T) {
	for _, kind := range allKinds() {
		fam := mkFamily(t, kind, 16, 2, 3, 1)
		fam.HashDenseRows(nil, 0, nil)
	}
}

// TestDWTASpecialValuesAgree: DWTA skips NaN like zero, so a bin's code is
// the position of its largest non-zero, non-NaN value whichever path
// computes it — HashDense, HashDenseRows, or HashSparse visiting the
// non-zeros in any order — on vectors made of ±0, ±Inf, NaN, subnormals
// and repeated values.
func TestDWTASpecialValuesAgree(t *testing.T) {
	specials := []float32{
		0, float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.Inf(-1)),
		float32(math.NaN()), math.Float32frombits(0xffc00001), // NaN with the sign bit set
		math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, 1e-40, 1, 1, -1, 2.5,
	}
	r := rand.New(rand.NewSource(9))
	for trial := 0; trial < 200; trial++ {
		dim := 1 + r.Intn(200)
		fam, err := New(KindDWTA, Params{Dim: dim, K: 1 + r.Intn(6), L: 1 + r.Intn(12), Seed: r.Uint64(), BinSize: 1 + r.Intn(12)})
		if err != nil {
			t.Fatal(err)
		}
		nf, rows := fam.NumFuncs(), 3
		block := make([]float32, rows*dim)
		for i := range block {
			if r.Intn(3) == 0 {
				block[i] = float32(r.NormFloat64())
			} else {
				block[i] = specials[r.Intn(len(specials))]
			}
		}
		batched := make([]uint32, rows*nf)
		fam.HashDenseRows(block, rows, batched)
		dense, sparseCodes := make([]uint32, nf), make([]uint32, nf)
		for row := 0; row < rows; row++ {
			x := block[row*dim : (row+1)*dim]
			fam.HashDense(x, dense)
			var idx []int32
			var val []float32
			for _, i := range r.Perm(dim) {
				if x[i] != 0 {
					idx = append(idx, int32(i))
					val = append(val, x[i])
				}
			}
			fam.HashSparse(sparse.Vector{Dim: dim, Idx: idx, Val: val}, sparseCodes)
			for f := 0; f < nf; f++ {
				if b := batched[row*nf+f]; dense[f] != b || dense[f] != sparseCodes[f] {
					t.Fatalf("trial %d dim=%d row=%d func=%d: dense %d, rows %d, sparse (shuffled) %d", trial, dim, row, f, dense[f], b, sparseCodes[f])
				}
			}
		}
	}
}
