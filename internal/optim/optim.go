// Package optim implements the optimizers used by SLIDE and its baselines.
//
// SLIDE trains with Adam (§5, "we also use the same optimizer, Adam")
// applied lazily: only the weights touched by an active neuron's sparse
// gradient receive a step, with first/second moments stored per weight.
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

// StepRow applies Adam to a full row with dense gradient g (the dense
// baseline's path). Plain writes; the caller guarantees exclusive access.
func (a Adam) StepRow(w, m, v, g []float32, alpha float32) {
	if len(w) != len(g) || len(m) != len(g) || len(v) != len(g) {
		panic("optim: StepRow length mismatch")
	}
	vecmath.AdamStep(w, m, v, g, 1, a.Beta1, a.Beta2, a.Eps, alpha, false)
}

// StepCells applies Adam to the cells of one weight row that a sparse
// gradient names: cell k is column cols[k] (column k when cols is nil) with
// gradient g[k]*scale. It is the span form of Step1 — the same expressions
// in the same order, so stepping a span is bit-identical to calling Step1
// per cell. With skipZero, cells whose g[k] is exactly zero are left alone
// (stepping them would decay their moments); without it every cell steps.
// Returns the number of cells stepped. Plain writes; the caller guarantees
// exclusive access to the row. A contiguous span (cols nil) is the vector
// kernel's shape; scattered columns step one cell at a time here.
func (a Adam) StepCells(w, m, v []float32, cols []int32, g []float32, scale, alpha float32, skipZero bool) int {
	if cols == nil {
		return vecmath.AdamStep(w, m, v, g, scale, a.Beta1, a.Beta2, a.Eps, alpha, skipZero)
	}
	if len(cols) != len(g) {
		panic("optim: StepCells column/gradient length mismatch")
	}
	m, v = m[:len(w)], v[:len(w)]
	b1, b2, eps := a.Beta1, a.Beta2, a.Eps
	stepped := 0
	for k, gk := range g {
		if gk == 0 && skipZero {
			continue
		}
		i := cols[k]
		gi := gk * scale
		nm := b1*m[i] + (1-b1)*gi
		nv := b2*v[i] + (1-b2)*gi*gi
		m[i] = nm
		v[i] = nv
		w[i] -= alpha * nm / (sqrt32(nv) + eps)
		stepped++
	}
	return stepped
}

func sqrt32(x float32) float32 {
	return float32(math.Sqrt(float64(x)))
}
