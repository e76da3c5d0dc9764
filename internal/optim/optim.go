// Package optim implements the optimizers used by SLIDE and its baselines.
//
// SLIDE trains with Adam (§5, "we also use the same optimizer, Adam")
// applied lazily: only the weights touched by an active neuron's sparse
// gradient receive a step, with first/second moments stored per weight.
// Three write disciplines support the paper's asynchronous design (§3.1)
// and its ablation:
//
//   - ModeHogwild: plain unsynchronized read-modify-write, the paper's
//     HOGWILD choice (Recht et al. 2011). Races are deliberate; sparse
//     updates rarely collide and the occasional lost update is tolerated.
//   - ModeAtomic: compare-and-swap loops per scalar. No lost updates, no
//     locks; slightly slower. Safe under the Go race detector.
//   - ModeBatchSync: gradients are accumulated per batch and applied by
//     non-overlapping shards, giving deterministic single-threaded-
//     equivalent results.
package optim

import (
	"fmt"
	"math"
	"sync/atomic"
	"unsafe"

	"repro/internal/vecmath"
)

// UpdateMode selects the gradient write discipline.
type UpdateMode int

const (
	// ModeHogwild pushes unsynchronized updates (the paper default).
	ModeHogwild UpdateMode = iota
	// ModeAtomic pushes CAS-based lock-free updates.
	ModeAtomic
	// ModeBatchSync accumulates per batch and applies synchronously.
	ModeBatchSync
)

// String returns the configuration name of the mode.
func (m UpdateMode) String() string {
	switch m {
	case ModeHogwild:
		return "hogwild"
	case ModeAtomic:
		return "atomic"
	case ModeBatchSync:
		return "batch-sync"
	default:
		return fmt.Sprintf("UpdateMode(%d)", int(m))
	}
}

// ParseUpdateMode converts a configuration name into an UpdateMode.
func ParseUpdateMode(s string) (UpdateMode, error) {
	switch s {
	case "hogwild":
		return ModeHogwild, nil
	case "atomic":
		return ModeAtomic, nil
	case "batch-sync":
		return ModeBatchSync, nil
	}
	return 0, fmt.Errorf("optim: unknown update mode %q", s)
}

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
// plain writes (ModeHogwild). alpha is Alpha(t).
func (a Adam) Step1(w, m, v *float32, g, alpha float32) {
	nm := a.Beta1**m + (1-a.Beta1)*g
	nv := a.Beta2**v + (1-a.Beta2)*g*g
	*m = nm
	*v = nv
	*w -= alpha * nm / (sqrt32(nv) + a.Eps)
}

// Step1Atomic applies one Adam step to a single weight using CAS loops
// (ModeAtomic). Each scalar is updated atomically; the triplet is not a
// transaction, matching lock-free sparse-Adam practice.
func (a Adam) Step1Atomic(w, m, v *float32, g, alpha float32) {
	nm := atomicRMW(m, func(old float32) float32 { return a.Beta1*old + (1-a.Beta1)*g })
	nv := atomicRMW(v, func(old float32) float32 { return a.Beta2*old + (1-a.Beta2)*g*g })
	atomicRMW(w, func(old float32) float32 { return old - alpha*nm/(sqrt32(nv)+a.Eps) })
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

// SGD is plain stochastic gradient descent, provided for ablations.
type SGD struct {
	LR float32
}

// Step1 applies w -= lr*g with plain writes.
func (s SGD) Step1(w *float32, g float32) { *w -= s.LR * g }

// Step1Atomic applies w -= lr*g with a CAS loop.
func (s SGD) Step1Atomic(w *float32, g float32) {
	atomicRMW(w, func(old float32) float32 { return old - s.LR*g })
}

// atomicRMW atomically applies f to *p and returns the new value.
func atomicRMW(p *float32, f func(float32) float32) float32 {
	addr := (*uint32)(unsafe.Pointer(p))
	for {
		oldBits := atomic.LoadUint32(addr)
		newVal := f(math.Float32frombits(oldBits))
		if atomic.CompareAndSwapUint32(addr, oldBits, math.Float32bits(newVal)) {
			return newVal
		}
	}
}

// AtomicAdd adds delta to *p with a CAS loop and returns the new value.
func AtomicAdd(p *float32, delta float32) float32 {
	return atomicRMW(p, func(old float32) float32 { return old + delta })
}

func sqrt32(x float32) float32 {
	return float32(math.Sqrt(float64(x)))
}
