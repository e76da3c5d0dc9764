package optim

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/vecmath"
)

// TestStepCellsBF16ContiguousMatchesIndexed: a nil column list (the vector
// kernel's shape) and the identity column list (the scalar loop) are the
// same bfloat16 step bit for bit — every width through the 8-cell blocks
// and their tails, with 30 % exact-zero gradients to skip and a random
// dither key.
func TestStepCellsBF16ContiguousMatchesIndexed(t *testing.T) {
	a := NewAdam(0.01)
	r := rand.New(rand.NewSource(9))
	for width := 0; width <= 70; width++ {
		w, g := make([]float32, width), make([]float32, width)
		m, v := make([]uint16, width), make([]uint16, width)
		identity := make([]int32, width)
		for i := range w {
			w[i] = r.Float32() - 0.5
			m[i], v[i] = vecmath.NarrowBF16(r.Float32()-0.5, 0x8000), vecmath.NarrowBF16(r.Float32(), 0x8000)
			if r.Intn(10) >= 3 {
				g[i] = r.Float32() - 0.5
			}
			identity[i] = int32(i)
		}
		alpha := a.Alpha(int64(1 + width))
		w1, m1, v1 := slices.Clone(w), slices.Clone(m), slices.Clone(v)
		w2, m2, v2 := slices.Clone(w), slices.Clone(m), slices.Clone(v)
		key := r.Uint32()
		got := a.StepCellsBF16(w1, m1, v1, nil, g, key, 1.0/64, alpha)
		want := a.StepCellsBF16(w2, m2, v2, identity, g, key, 1.0/64, alpha)
		same := slices.EqualFunc(w1, w2, func(p, q float32) bool { return math.Float32bits(p) == math.Float32bits(q) })
		if got != want || !same || !slices.Equal(m1, m2) || !slices.Equal(v1, v2) {
			t.Fatalf("width %d: contiguous step (%d cells) differs from identity columns (%d cells)", width, got, want)
		}
	}
}

// TestStepRowMatchesStep1AtEveryWidth: the dense row step is Step1 per
// cell bit for bit at every width through the 8-cell blocks and their
// tails, zero gradients included (they step: dense Adam decays them).
func TestStepRowMatchesStep1AtEveryWidth(t *testing.T) {
	a := NewAdam(0.01)
	r := rand.New(rand.NewSource(10))
	for width := 0; width <= 70; width++ {
		w, m, v, g := make([]float32, width), make([]float32, width), make([]float32, width), make([]float32, width)
		for i := range w {
			w[i], m[i], v[i] = r.Float32()-0.5, r.Float32()-0.5, r.Float32()
			if r.Intn(10) >= 3 {
				g[i] = r.Float32() - 0.5
			}
		}
		alpha := a.Alpha(int64(1 + width))
		w2, m2, v2 := slices.Clone(w), slices.Clone(m), slices.Clone(v)
		a.StepRow(w, m, v, g, alpha)
		for i := range w2 {
			a.Step1(&w2[i], &m2[i], &v2[i], g[i], alpha)
		}
		for i := range w {
			if math.Float32bits(w[i]) != math.Float32bits(w2[i]) ||
				math.Float32bits(m[i]) != math.Float32bits(m2[i]) ||
				math.Float32bits(v[i]) != math.Float32bits(v2[i]) {
				t.Fatalf("width %d: StepRow cell %d differs from Step1", width, i)
			}
		}
	}
}
