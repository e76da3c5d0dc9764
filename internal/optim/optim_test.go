package optim

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/vecmath"
)

func TestAdamAlphaBiasCorrection(t *testing.T) {
	a := NewAdam(0.001)
	// At t=1: sqrt(1-beta2)/(1-beta1) = sqrt(0.001)/0.1.
	want := 0.001 * math.Sqrt(1-0.999) / (1 - 0.9)
	if got := float64(a.Alpha(1)); math.Abs(got-want) > 1e-7 {
		t.Fatalf("Alpha(1) = %v, want %v", got, want)
	}
	// As t → ∞ the correction vanishes: alpha → lr.
	if got := float64(a.Alpha(1_000_000)); math.Abs(got-0.001) > 1e-6 {
		t.Fatalf("Alpha(1e6) = %v, want ~0.001", got)
	}
	// Alpha is defined (and clamped) for t < 1.
	if a.Alpha(0) != a.Alpha(1) {
		t.Fatal("Alpha(0) should clamp to t=1")
	}
}

func TestStep1MatchesReferenceAdam(t *testing.T) {
	a := NewAdam(0.01)
	var w, m, v float32 = 1, 0, 0
	// Reference Adam in float64.
	var wr, mr, vr float64 = 1, 0, 0
	for step := int64(1); step <= 20; step++ {
		g := float32(0.5) * float32(step%3)
		alpha := a.Alpha(step)
		a.Step1(&w, &m, &v, g, alpha)

		g64 := float64(g)
		mr = 0.9*mr + 0.1*g64
		vr = 0.999*vr + 0.001*g64*g64
		mhat := mr / (1 - math.Pow(0.9, float64(step)))
		vhat := vr / (1 - math.Pow(0.999, float64(step)))
		wr -= 0.01 * mhat / (math.Sqrt(vhat) + eps64(a, step))
	}
	// The folded-alpha formulation differs from the textbook one only in
	// where eps enters; allow a small band.
	if math.Abs(float64(w)-wr) > 1e-3 {
		t.Fatalf("Step1 diverged from reference: %v vs %v", w, wr)
	}
}

// eps64 mirrors the folded epsilon: Step1 uses alpha*m/(sqrt(v)+eps),
// equivalent to eps' = eps*sqrt(1-beta2^t) in the textbook form.
func eps64(a Adam, t int64) float64 {
	return float64(a.Eps) / math.Sqrt(1-math.Pow(float64(a.Beta2), float64(t)))
}

func TestStepRowMatchesStep1(t *testing.T) {
	if err := quick.Check(func(seed int64) bool {
		a := NewAdam(0.01)
		g := []float32{0.1, -0.2, 0.3, 0}
		w1 := []float32{1, 2, 3, 4}
		m1 := make([]float32, 4)
		v1 := make([]float32, 4)
		w2 := append([]float32(nil), w1...)
		m2 := make([]float32, 4)
		v2 := make([]float32, 4)
		alpha := a.Alpha(1)
		a.StepRow(w1, m1, v1, g, alpha)
		for i := range w2 {
			a.Step1(&w2[i], &m2[i], &v2[i], g[i], alpha)
		}
		for i := range w1 {
			if w1[i] != w2[i] || m1[i] != m2[i] || v1[i] != v2[i] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// TestStepCellsBF16MatchesStep1: the bfloat16 cell step is, per named
// cell, Step1 on the widened moments followed by narrowing them with the
// halves of the cell's Dither — bit for bit, for indexed and identity
// columns — and skips exactly the ±0 gradients: the property that lets
// the trainer's two update-phase consumers share it.
func TestStepCellsBF16MatchesStep1(t *testing.T) {
	a := NewAdam(0.01)
	const width = 16
	for _, indexed := range []bool{false, true} {
		r := rand.New(rand.NewSource(5))
		w1 := make([]float32, width)
		m1, v1 := make([]uint16, width), make([]uint16, width)
		for i := range w1 {
			w1[i] = r.Float32() - 0.5
			m1[i], v1[i] = vecmath.NarrowBF16(r.Float32()-0.5, 0x8000), vecmath.NarrowBF16(r.Float32(), 0x8000)
		}
		w2, m2, v2 := slices.Clone(w1), slices.Clone(m1), slices.Clone(v1)

		var cols []int32
		g := make([]float32, width)
		if indexed {
			cols = []int32{1, 4, 5, 9, 15}
			g = g[:len(cols)]
		}
		for k := range g {
			if k%3 != 1 { // leave exact zeros for the skip to find
				g[k] = r.Float32() - 0.5
			}
		}
		const scale = float32(1.0 / 32)
		const key = 0x0ddba11
		alpha := a.Alpha(7)
		want := 0
		for k, gk := range g {
			if gk == 0 {
				continue
			}
			i := k
			if indexed {
				i = int(cols[k])
			}
			m, v := vecmath.WidenBF16(m2[i]), vecmath.WidenBF16(v2[i])
			a.Step1(&w2[i], &m, &v, gk*scale, alpha)
			d := vecmath.Dither(key, i)
			m2[i], v2[i] = vecmath.NarrowBF16(m, d&0xffff), vecmath.NarrowBF16(v, d>>16)
			want++
		}
		got := a.StepCellsBF16(w1, m1, v1, cols, g, key, scale, alpha)
		if got != want {
			t.Fatalf("indexed=%v: stepped %d cells, want %d", indexed, got, want)
		}
		for i := range w1 {
			if math.Float32bits(w1[i]) != math.Float32bits(w2[i]) || m1[i] != m2[i] || v1[i] != v2[i] {
				t.Fatalf("indexed=%v: cell %d diverged from Step1", indexed, i)
			}
		}
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	// Minimize (w-3)^2; gradient 2(w-3).
	a := NewAdam(0.05)
	var w, m, v float32 = -5, 0, 0
	for step := int64(1); step <= 2000; step++ {
		g := 2 * (w - 3)
		a.Step1(&w, &m, &v, g, a.Alpha(step))
	}
	if math.Abs(float64(w)-3) > 0.05 {
		t.Fatalf("Adam did not converge: w = %v, want 3", w)
	}
}

// TestStepLengthMismatchPanics: StepRow panics when a moment or the weight
// row is not as long as the gradient, and StepCellsBF16 when its column
// list and gradient differ in length or a moment row is shorter than the
// gradient.
func TestStepLengthMismatchPanics(t *testing.T) {
	a := NewAdam(0.01)
	long, short := make([]float32, 4), make([]float32, 3)
	for name, step := range map[string]func(){
		"StepRow_w":         func() { a.StepRow(short, long, long, long, 1) },
		"StepRow_m":         func() { a.StepRow(long, short, long, long, 1) },
		"StepRow_v":         func() { a.StepRow(long, long, short, long, 1) },
		"StepCellsBF16_col": func() { a.StepCellsBF16(long, make([]uint16, 4), make([]uint16, 4), []int32{0, 1}, short, 0, 1, 1) },
		"StepCellsBF16_v":   func() { a.StepCellsBF16(long, make([]uint16, 4), make([]uint16, 3), nil, long, 0, 1, 1) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("length mismatch did not panic")
				}
			}()
			step()
		})
	}
}
