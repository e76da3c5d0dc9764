package vecmath

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// randLaneSlab draws n functions of steps coordinates each over dim inputs,
// every coordinate negated with probability 1/2 when signed.
func randLaneSlab(r *rng.RNG, dim, n, steps int, signed bool) (*LaneSlab, []int32, []bool) {
	coord := make([]int32, n*steps)
	var neg []bool
	if signed {
		neg = make([]bool, n*steps)
	}
	for i := range coord {
		coord[i] = int32(r.Intn(dim))
		if signed {
			neg[i] = r.Intn(2) == 0
		}
	}
	return NewLaneSlab(dim, steps, coord, neg), coord, neg
}

// sparseMixedVec is mixedVec with each cell kept with probability density
// and otherwise ±0.
func sparseMixedVec(r *rng.RNG, n int, density float64) []float32 {
	v := mixedVec(r, n)
	for i := range v {
		if !r.Bernoulli(density) {
			v[i] = specials[r.Intn(2)]
		}
	}
	return v
}

// laneShapes calls f over random slab shapes: input lengths and function
// counts that are not multiples of 8, bin-sized and simhash-sized step
// counts, enough functions to split a row over several kernel calls, steps
// past the per-call bound, and densities 0–1.
func laneShapes(r *rng.RNG, f func(dim, n, steps int, density float64)) {
	for trial := 0; trial < 300; trial++ {
		dim := 1 + r.Intn(300)
		n := 1 + r.Intn(70)
		steps := 1 + r.Intn(12)
		if trial%3 == 0 {
			steps = 1 + r.Intn(dim)
		}
		f(dim, n, steps, []float64{0, 0.01, 0.1, 0.5, 0.9, 1}[trial%6])
	}
	f(128, 400, 8, 0.8)           // train_xwide's DWTA shape
	f(128, 210, 42, 1)            // train_converge's Simhash shape
	f(1000, 9, maxCells/8+3, 0.5) // longer than one call: the Go kernel
	f(50, 1000, 37, 0.5)          // many calls per row
}

func TestSignedSumsMatchesGoBitwise(t *testing.T) {
	r := rng.New(16)
	laneShapes(r, func(dim, n, steps int, density float64) {
		slab, coord, neg := randLaneSlab(r, dim, n, steps, true)
		x := offsetCopy(sparseMixedVec(r, dim, density), r.Intn(8))
		got, want := make([]float32, n+3), make([]float32, n+3)
		slab.SignedSums(got, x)
		signedSumsGo(slab, want, x)
		if i := sameBits(got, want); i >= 0 {
			t.Fatalf("dim=%d n=%d steps=%d density=%g: dst[%d] = %x, Go kernel %x", dim, n, steps, density, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
		}
		// The definition, independent of the slab layout.
		for f := 0; f < n; f++ {
			var acc float32
			for j, c := range coord[f*steps : (f+1)*steps] {
				if neg[f*steps+j] {
					acc -= x[c]
				} else {
					acc += x[c]
				}
			}
			if sameBits(got[f:f+1], []float32{acc}) >= 0 {
				t.Fatalf("dim=%d n=%d steps=%d: function %d sums to %v, definition %v", dim, n, steps, f, got[f], acc)
			}
		}
	})
}

func TestNonZeroArgMaxMatchesGo(t *testing.T) {
	r := rng.New(17)
	laneShapes(r, func(dim, n, steps int, density float64) {
		slab, coord, _ := randLaneSlab(r, dim, n, steps, false)
		x := offsetCopy(sparseMixedVec(r, dim, density), r.Intn(8))
		if density == 0.5 {
			// Ties: a few distinct values, repeated.
			for i := range x {
				if x[i] != 0 && x[i] == x[i] {
					x[i] = float32(r.Intn(3))
				}
			}
		}
		got, want := make([]uint32, n), make([]uint32, n)
		slab.NonZeroArgMax(got, x)
		nonZeroArgMaxGo(slab, want, x)
		for f := range got {
			// The definition: the first kept value fills the bin, a strictly
			// greater one replaces it.
			spec, best := NoArgMax, float32(0)
			for j, c := range coord[f*steps : (f+1)*steps] {
				if v := x[c]; v != 0 && v == v && (spec == NoArgMax || v > best) {
					spec, best = uint32(j), v
				}
			}
			if got[f] != want[f] || got[f] != spec {
				t.Fatalf("dim=%d n=%d steps=%d density=%g: function %d = %#x, Go kernel %#x, definition %#x", dim, n, steps, density, f, got[f], want[f], spec)
			}
		}
	})
}

func TestLaneSlabPanics(t *testing.T) {
	slab := NewLaneSlab(16, 2, []int32{0, 15, 3, 4, 5, 6}, nil)
	if slab.Steps() != 2 || slab.Coord(0, 1) != 15 || slab.Coord(2, 1) != 6 {
		t.Fatalf("slab Steps=%d Coord(0,1)=%d Coord(2,1)=%d", slab.Steps(), slab.Coord(0, 1), slab.Coord(2, 1))
	}
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: no panic", name)
			}
		}()
		f()
	}
	mustPanic("coordinate past dim", func() { NewLaneSlab(16, 2, []int32{0, 16}, nil) })
	mustPanic("negative coordinate", func() { NewLaneSlab(16, 2, []int32{0, -1}, nil) })
	mustPanic("partial function", func() { NewLaneSlab(16, 2, []int32{0, 1, 2}, nil) })
	mustPanic("sign length", func() { NewLaneSlab(16, 2, []int32{0, 1}, []bool{true}) })
	mustPanic("short input", func() { slab.SignedSums(make([]float32, 3), make([]float32, 15)) })
	mustPanic("long input", func() { slab.NonZeroArgMax(make([]uint32, 3), make([]float32, 17)) })
	mustPanic("short output", func() { slab.NonZeroArgMax(make([]uint32, 2), make([]float32, 16)) })
}
