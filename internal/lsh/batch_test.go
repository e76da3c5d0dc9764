package lsh

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/sparse"
	"repro/internal/vecmath"
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

// TestHashBlockMatchesHashDense: HashBlock's codes for vector r of a
// transposed block are bitwise HashDense's on that vector, for both
// families, across random shapes, partial blocks (lanes past the last
// vector repeat it), and blocks holding all-zero vectors and vectors with
// a single non-zero — whose DWTA bins are mostly empty, so densify runs
// inside the block.
func TestHashBlockMatchesHashDense(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for trial := 0; trial < 60; trial++ {
		dim := 1 + r.Intn(200)
		p := Params{
			Dim:            dim,
			K:              1 + r.Intn(6),
			L:              1 + r.Intn(9),
			Seed:           r.Uint64(),
			SimhashDensity: 0.05 + r.Float64()*0.9,
			BinSize:        1 + r.Intn(12),
		}
		n := 1 + r.Intn(8)
		rows := make([]float32, n*dim)
		for row := 0; row < n; row++ {
			x := rows[row*dim : (row+1)*dim]
			switch (trial + row) % 4 {
			case 0: // all zero
			case 1:
				x[r.Intn(dim)] = float32(r.NormFloat64())
			default:
				for i := range x {
					if r.Intn(2) == 0 {
						x[i] = float32(r.NormFloat64())
					}
				}
			}
		}
		xt := make([]float32, 8*dim)
		vecmath.Transpose8(xt, rows, dim)
		for _, kind := range allKinds() {
			fam, err := New(kind, p)
			if err != nil {
				t.Fatal(err)
			}
			nf := fam.NumFuncs()
			codes := make([]uint32, 8*nf)
			fam.HashBlock(xt, codes)
			want := make([]uint32, nf)
			for lane := 0; lane < 8; lane++ {
				row := min(lane, n-1)
				fam.HashDense(rows[row*dim:(row+1)*dim], want)
				for f, c := range want {
					if codes[f*8+lane] != c {
						t.Fatalf("trial %d %v dim=%d K=%d L=%d vectors=%d: lane %d function %d = %#x, HashDense %#x", trial, kind, dim, p.K, p.L, n, lane, f, codes[f*8+lane], c)
					}
				}
			}
		}
	}
	for _, kind := range allKinds() {
		fam := mkFamily(t, kind, 16, 2, 3, 1)
		for _, c := range []struct {
			name  string
			xt    []float32
			codes []uint32
		}{
			{"short block", make([]float32, 8*15), make([]uint32, 8*6)},
			{"short codes", make([]float32, 8*16), make([]uint32, 8*6-1)},
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("%v HashBlock with a %s: no panic", kind, c.name)
					}
				}()
				fam.HashBlock(c.xt, c.codes)
			}()
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
