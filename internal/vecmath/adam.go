package vecmath

import "math"

// adamParams are one Adam step's per-call constants, laid out for the
// vector kernel to broadcast (avx2_amd64.s reads the fields by offset).
type adamParams struct {
	scale, b1, omb1, b2, omb2, eps, alpha float32
}

// AdamStep applies one Adam step to the first len(g) cells of a weight row
// from the aligned gradient g, cell k stepping with gradient g[k]*scale:
//
//	nm := b1*m + (1-b1)*gi;  nv := b2*v + (1-b2)*gi*gi
//	w  -= alpha*nm / (sqrt(nv) + eps)
//
// on raw moments (alpha carries the bias correction). With skipZero, cells
// whose g[k] is exactly zero are left alone. Returns the number of cells
// stepped. It is the one implementation of the contiguous row step:
// optim.Adam.StepRow and StepCells (without a column list) call it, and the
// expressions are optim.Adam.Step1's in the same order, so a row step is
// bit-identical to a Step1 per cell. Plain writes; the caller guarantees
// exclusive access to the row.
func AdamStep(w, m, v, g []float32, scale, b1, b2, eps, alpha float32, skipZero bool) int {
	n := len(g)
	w, m, v = w[:n], m[:n], v[:n]
	p := adamParams{scale: scale, b1: b1, omb1: 1 - b1, b2: b2, omb2: 1 - b2, eps: eps, alpha: alpha}
	done, stepped := 0, 0
	if Unrolled && hasAVX2 {
		for n8 := n &^ 7; done < n8; {
			c := min(n8-done, maxCells)
			stepped += c - adamAVX2(&w[done], &m[done], &v[done], &g[done], c/8, &p, skipZero)
			done += c
		}
	}
	return stepped + adamStepGo(w[done:], m[done:], v[done:], g[done:], &p, skipZero)
}

// adamStepGo is the Go row step: the reference the vector kernel is tested
// against, and the path for block tails and machines without AVX2.
func adamStepGo(w, m, v, g []float32, p *adamParams, skipZero bool) int {
	m, v = m[:len(w)], v[:len(w)]
	stepped := 0
	for k, gk := range g {
		if gk == 0 && skipZero {
			continue
		}
		gi := gk * p.scale
		nm := p.b1*m[k] + p.omb1*gi
		nv := p.b2*v[k] + p.omb2*gi*gi
		m[k] = nm
		v[k] = nv
		w[k] -= p.alpha * nm / (float32(math.Sqrt(float64(nv))) + p.eps)
		stepped++
	}
	return stepped
}
