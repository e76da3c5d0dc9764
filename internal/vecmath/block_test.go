package vecmath

import (
	"math"
	"testing"
)

// blockInputs draws eight inputs of length dim for a block test, one
// scheme per lane: mixed values with specials (±0, NaN, ±Inf, subnormals)
// at density, an all-zero lane, an all-NaN lane, and a lane of a few
// repeated values (exact ties), so a block holds every case at once.
func blockInputs(r *pcg, dim int, density float64) [8][]float32 {
	var in [8][]float32
	for k := range in {
		switch k {
		case 3:
			in[k] = make([]float32, dim)
			if r.Intn(2) == 0 {
				for i := range in[k] {
					in[k][i] = float32(math.Copysign(0, -1))
				}
			}
		case 5:
			in[k] = make([]float32, dim)
			for i := range in[k] {
				in[k][i] = float32(math.NaN())
			}
		case 6:
			in[k] = sparseMixedVec(r, dim, density)
			for i, v := range in[k] {
				if v != 0 && v == v {
					in[k][i] = float32(r.Intn(3)) - 1
				}
			}
		default:
			in[k] = sparseMixedVec(r, dim, density)
		}
	}
	return in
}

// transposeInputs packs the first n inputs back to back and transposes
// them through Transpose8; lane r then holds input min(r, n-1).
func transposeInputs(in [8][]float32, n int) []float32 {
	dim := len(in[0])
	rows := make([]float32, 0, n*dim)
	for r := 0; r < n; r++ {
		rows = append(rows, in[r]...)
	}
	xt := make([]float32, 8*dim)
	Transpose8(xt, rows, dim)
	return xt
}

func TestTranspose8(t *testing.T) {
	r := newPCG(40)
	for _, dim := range []int{1, 3, 7, 8, 9, 16, 61, 128, 129, maxCells/8 + 8, maxCells + 13} {
		for n := 1; n <= 8; n++ {
			rows := mixedVec(r, n*dim)
			xt := make([]float32, 8*dim)
			for i := range xt {
				xt[i] = 42 // every cell must be overwritten
			}
			Transpose8(xt, rows, dim)
			for c := 0; c < dim; c++ {
				for k := 0; k < 8; k++ {
					want := rows[min(k, n-1)*dim+c]
					if math.Float32bits(xt[c*8+k]) != math.Float32bits(want) {
						t.Fatalf("dim=%d n=%d: xt[%d*8+%d] = %v, want row %d's %v", dim, n, c, k, xt[c*8+k], min(k, n-1), want)
					}
				}
			}
		}
	}
}

// TestSignedSumsBlockMatchesRows: lane r of SignedSumsBlock is bitwise
// SignedSums on input r, and the Go block kernel agrees, over laneShapes'
// slabs (dims not a multiple of 8, several step counts, calls split past
// the per-call bound) and partial blocks.
func TestSignedSumsBlockMatchesRows(t *testing.T) {
	r := newPCG(41)
	laneShapes(r, func(dim, n, steps int, density float64) {
		slab, _, _ := randLaneSlab(r, dim, n, steps, true)
		in := blockInputs(r, dim, density)
		rows := 1 + r.Intn(8)
		xt := transposeInputs(in, rows)
		got, ref := make([]float32, 8*n+5), make([]float32, 8*n+5)
		slab.SignedSumsBlock(got, xt)
		signedSumsBlockGo(slab, ref, xt)
		row := make([]float32, n)
		for k := 0; k < 8; k++ {
			slab.SignedSums(row, in[min(k, rows-1)])
			for f, want := range row {
				if math.Float32bits(got[f*8+k]) != math.Float32bits(want) && !(want != want && got[f*8+k] != got[f*8+k]) {
					t.Fatalf("dim=%d n=%d steps=%d density=%g: function %d lane %d = %x, SignedSums %x", dim, n, steps, density, f, k, math.Float32bits(got[f*8+k]), math.Float32bits(want))
				}
			}
		}
		if i := sameBits(got, ref); i >= 0 {
			t.Fatalf("dim=%d n=%d steps=%d: dst[%d] = %x, Go block kernel %x", dim, n, steps, i, math.Float32bits(got[i]), math.Float32bits(ref[i]))
		}
	})
}

// TestNonZeroArgMaxBlockMatchesRows: lane r of NonZeroArgMaxBlock is
// NonZeroArgMax on input r — positions, ties and NoArgMax — the Go block
// kernel agrees, and the empty flag is set exactly when some lane of some
// function is NoArgMax (the all-zero and all-NaN lanes set it).
func TestNonZeroArgMaxBlockMatchesRows(t *testing.T) {
	r := newPCG(42)
	laneShapes(r, func(dim, n, steps int, density float64) {
		slab, _, _ := randLaneSlab(r, dim, n, steps, false)
		in := blockInputs(r, dim, density)
		rows := 1 + r.Intn(8)
		if r.Intn(3) == 0 {
			rows = 8 // the special lanes 3, 5 and 6 only show in a full block
		}
		xt := transposeInputs(in, rows)
		got, ref := make([]uint32, 8*n), make([]uint32, 8*n)
		empty := slab.NonZeroArgMaxBlock(got, xt)
		refEmpty := nonZeroArgMaxBlockGo(slab, ref, xt)
		row := make([]uint32, n)
		wantEmpty := false
		for k := 0; k < 8; k++ {
			slab.NonZeroArgMax(row, in[min(k, rows-1)])
			for f, want := range row {
				if got[f*8+k] != want || ref[f*8+k] != want {
					t.Fatalf("dim=%d n=%d steps=%d density=%g: function %d lane %d = %#x, Go block kernel %#x, NonZeroArgMax %#x", dim, n, steps, density, f, k, got[f*8+k], ref[f*8+k], want)
				}
				wantEmpty = wantEmpty || want == NoArgMax
			}
		}
		if empty != wantEmpty || refEmpty != wantEmpty {
			t.Fatalf("dim=%d n=%d steps=%d rows=%d: empty flag %v, Go block kernel %v, want %v", dim, n, steps, rows, empty, refEmpty, wantEmpty)
		}
	})
	// A block whose every value is kept reports no empty lane.
	slab, _, _ := randLaneSlab(r, 128, 400, 8, false)
	xt := make([]float32, 8*128)
	for i := range xt {
		xt[i] = 1 + float32(r.Intn(5))
	}
	if slab.NonZeroArgMaxBlock(make([]uint32, 8*400), xt) {
		t.Fatal("a block with no zero or NaN value reported an empty lane")
	}
}

// TestAddressesMatchGo: the address kernels' vector path is bitwise their
// Go kernels, for several code counts, code widths, masks and per-call
// splits, with only the first n lanes written when n < 8.
func TestAddressesMatchGo(t *testing.T) {
	r := newPCG(43)
	for trial := 0; trial < 200; trial++ {
		k := 1 + r.Intn(12)
		if trial%50 == 0 {
			k = maxCells/3 + r.Intn(3) // several calls per block
		}
		tables := 1 + r.Intn(60)
		bits := 1 + r.Intn(4)
		n := 8
		if trial%4 == 0 {
			n = 1 + r.Intn(7)
		}
		stride := n + r.Intn(20)
		codes := make([]uint32, 8*k*tables)
		for i := range codes {
			codes[i] = r.Uint32() >> (32 - bits)
		}
		if trial%7 == 0 {
			codes[r.Intn(len(codes))] = math.MaxUint32 // the mix takes any code
		}
		seed := uint64(r.Uint32())<<32 | uint64(r.Uint32())
		mask := uint32(1)<<(1+r.Intn(28)) - 1
		size := (tables-1)*stride + 8
		for _, pack := range []bool{false, true} {
			got, want := make([]uint32, size), make([]uint32, size)
			for i := range got {
				got[i], want[i] = 7, 7 // cells outside the lanes stay
			}
			if pack {
				PackAddresses(got, stride, n, codes, k, tables, bits)
				packAddressesGo(want, stride, n, codes, k, tables, bits)
			} else {
				MixAddresses(got, stride, n, codes, k, tables, seed, mask)
				mixAddressesGo(want, stride, n, codes, k, tables, seed, mask)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("pack=%v k=%d tables=%d bits=%d n=%d stride=%d: dst[%d] = %#x, Go kernel %#x", pack, k, tables, bits, n, stride, i, got[i], want[i])
				}
				if lane := i % stride; got[i] != 7 && (lane >= n || i/stride >= tables) {
					t.Fatalf("pack=%v n=%d stride=%d: dst[%d] outside the %d lanes written", pack, n, stride, i, n)
				}
			}
		}
	}
}

func TestBlockPanics(t *testing.T) {
	slab := NewLaneSlab(16, 2, []int32{0, 15, 3, 4, 5, 6}, nil)
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: no panic", name)
			}
		}()
		f()
	}
	mustPanic("short block", func() { slab.SignedSumsBlock(make([]float32, 24), make([]float32, 8*15)) })
	mustPanic("short block output", func() { slab.NonZeroArgMaxBlock(make([]uint32, 23), make([]float32, 8*16)) })
	mustPanic("transpose of nine rows", func() { Transpose8(make([]float32, 16), make([]float32, 18), 2) })
	mustPanic("transpose of a partial row", func() { Transpose8(make([]float32, 16), make([]float32, 3), 2) })
	mustPanic("short codes", func() { PackAddresses(make([]uint32, 8), 8, 8, make([]uint32, 15), 2, 1, 1) })
	mustPanic("short regions", func() { MixAddresses(make([]uint32, 15), 8, 8, make([]uint32, 32), 2, 2, 0, 1) })
	mustPanic("nine lanes", func() { MixAddresses(make([]uint32, 16), 9, 9, make([]uint32, 16), 2, 1, 0, 1) })
}
