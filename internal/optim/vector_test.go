package optim

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestStepCellsContiguousMatchesIndexed: a nil column list (the vector
// kernel's shape) and the identity column list (the scalar loop) are the
// same step bit for bit — every width through the 8-cell blocks and their
// tails, 30 % exact-zero gradients, with and without the zero skip — and
// StepRow is the unscaled, unskipped case of both.
func TestStepCellsContiguousMatchesIndexed(t *testing.T) {
	a := NewAdam(0.01)
	r := rand.New(rand.NewSource(9))
	same := func(x, y []float32) bool {
		return slices.EqualFunc(x, y, func(p, q float32) bool { return math.Float32bits(p) == math.Float32bits(q) })
	}
	for width := 0; width <= 70; width++ {
		w, m, v, g := make([]float32, width), make([]float32, width), make([]float32, width), make([]float32, width)
		identity := make([]int32, width)
		for i := range w {
			w[i], m[i], v[i] = r.Float32()-0.5, r.Float32()-0.5, r.Float32()
			if r.Intn(10) >= 3 {
				g[i] = r.Float32() - 0.5
			}
			identity[i] = int32(i)
		}
		alpha := a.Alpha(int64(1 + width))
		for _, skipZero := range []bool{false, true} {
			w1, m1, v1 := slices.Clone(w), slices.Clone(m), slices.Clone(v)
			w2, m2, v2 := slices.Clone(w), slices.Clone(m), slices.Clone(v)
			got := a.StepCells(w1, m1, v1, nil, g, 1.0/64, alpha, skipZero)
			want := a.StepCells(w2, m2, v2, identity, g, 1.0/64, alpha, skipZero)
			if got != want || !same(w1, w2) || !same(m1, m2) || !same(v1, v2) {
				t.Fatalf("width %d skipZero=%v: contiguous step (%d cells) differs from identity columns (%d cells)", width, skipZero, got, want)
			}
		}
		w1, m1, v1 := slices.Clone(w), slices.Clone(m), slices.Clone(v)
		w2, m2, v2 := slices.Clone(w), slices.Clone(m), slices.Clone(v)
		a.StepRow(w1, m1, v1, g, alpha)
		a.StepCells(w2, m2, v2, identity, g, 1, alpha, false)
		if !same(w1, w2) || !same(m1, m2) || !same(v1, v2) {
			t.Fatalf("width %d: StepRow differs from StepCells at scale 1", width)
		}
	}
}
