// Package optim implements the optimizers used by SLIDE and its baselines.
//
// SLIDE trains with Adam (§5, "we also use the same optimizer, Adam")
// applied lazily: only the weights touched by an active neuron's sparse
// gradient receive a step, with first/second moments stored per weight.
// The sparse trainer stores a weight's moments as bfloat16, rounded
// stochastically by a keyed hash (StepCellsBF16); the dense baseline and
// every bias keep float32 moments (StepRow, Step1). All arithmetic is float32 either way.
// The steps are plain writes: the trainer runs them once per batch, each
// weight row stepped by exactly one worker.
package optim

import (
	"math"

	"repro/internal/vecmath"
)

// Adam holds the Adam hyperparameters (Kingma & Ba 2014). The zero value
// is not useful; construct with NewAdam.
type Adam struct {
	LR    float32
	Beta1 float32
	Beta2 float32
	Eps   float32
}

// NewAdam returns Adam with the standard defaults (beta1=0.9, beta2=0.999,
// eps=1e-8) at the given learning rate.
func NewAdam(lr float32) Adam {
	return Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
}

// Alpha returns the bias-corrected step size for global step t (1-based):
// lr * sqrt(1-beta2^t) / (1-beta1^t). Folding the corrections into the
// step size lets the per-weight update use raw moments.
func (a Adam) Alpha(t int64) float32 {
	if t < 1 {
		t = 1
	}
	b1t := math.Pow(float64(a.Beta1), float64(t))
	b2t := math.Pow(float64(a.Beta2), float64(t))
	return a.LR * float32(math.Sqrt(1-b2t)/(1-b1t))
}

// Step1 applies one Adam step to a single weight with gradient g using
// plain writes. alpha is Alpha(t).
func (a Adam) Step1(w, m, v *float32, g, alpha float32) {
	nm := a.Beta1**m + (1-a.Beta1)*g
	nv := a.Beta2**v + (1-a.Beta2)*g*g
	*m = nm
	*v = nv
	*w -= alpha * nm / (sqrt32(nv) + a.Eps)
}

// StepRow applies Adam to a full row with dense gradient g and float32
// moments (the dense baseline's path). Plain writes; the caller guarantees
// exclusive access.
func (a Adam) StepRow(w, m, v, g []float32, alpha float32) {
	if len(w) != len(g) || len(m) != len(g) || len(v) != len(g) {
		panic("optim: StepRow length mismatch")
	}
	vecmath.AdamStep(w, m, v, g, a.Beta1, a.Beta2, a.Eps, alpha)
}

// StepCellsBF16 applies Adam to the cells of one weight row that a sparse
// gradient names, over bfloat16 moments: cell k is column cols[k] (column
// k when cols is nil) with gradient g[k]*scale, and cells whose g[k] is
// exactly zero are left alone (stepping them would decay their moments).
// Each stepped cell is Step1 on its widened moments — the same
// expressions in the same order, w stepping with the unrounded moments —
// and then stores them by vecmath.NarrowBF16 with the halves of
// vecmath.Dither(key, column), so a cell's bits do not depend on which
// form stepped it. Returns the number of cells stepped. Plain writes; the
// caller guarantees exclusive access to the row. A contiguous span (cols
// nil) is the vector kernel's shape (vecmath.AdamStepBF16); scattered
// columns step one cell at a time here.
func (a Adam) StepCellsBF16(w []float32, m, v []uint16, cols []int32, g []float32, key uint32, scale, alpha float32) int {
	if cols == nil {
		return vecmath.AdamStepBF16(w, m, v, g, key, scale, a.Beta1, a.Beta2, a.Eps, alpha)
	}
	if len(cols) != len(g) {
		panic("optim: StepCellsBF16 column/gradient length mismatch")
	}
	m, v = m[:len(w)], v[:len(w)]
	b1, b2, eps := a.Beta1, a.Beta2, a.Eps
	stepped := 0
	for k, gk := range g {
		if gk == 0 {
			continue
		}
		i := cols[k]
		gi := gk * scale
		nm := b1*vecmath.WidenBF16(m[i]) + (1-b1)*gi
		nv := b2*vecmath.WidenBF16(v[i]) + (1-b2)*gi*gi
		d := vecmath.Dither(key, int(i))
		m[i] = vecmath.NarrowBF16(nm, d&0xffff)
		v[i] = vecmath.NarrowBF16(nv, d>>16)
		w[i] -= alpha * nm / (sqrt32(nv) + eps)
		stepped++
	}
	return stepped
}

func sqrt32(x float32) float32 {
	return float32(math.Sqrt(float64(x)))
}
