package core

import (
	"repro/internal/sparse"
	"repro/internal/vecmath"
)

// elemRecord is one batch position's element, kept from its forward pass
// until the batch boundary: per layer the active ids, activations and
// deltas (the paper's per-neuron batch arrays, Fig. 2, keyed by element),
// plus the example's features, which are layer 0's input and alias dataset
// memory. Layer li's input is layer li-1's active state. Records are owned
// by the network and indexed by batch position, so what a batch computes
// does not depend on which worker ran which element.
type elemRecord struct {
	layers []layerState
	x      sparse.Vector
	// used marks a record whose backward pass ran and whose gradient the
	// next fold has not consumed yet.
	used bool
}

// input returns layer li's input in the record: the previous layer's
// active state, or the example's sparse features for the first layer.
func (r *elemRecord) input(li int) (ids []int32, vals []float32, full bool) {
	if li == 0 {
		return r.x.Idx, r.x.Val, false
	}
	prev := &r.layers[li-1]
	return prev.ids, prev.vals, prev.full
}

// ensureRecords grows the network's record slots to at least size batch
// positions. Not safe concurrently with training passes.
func (n *Network) ensureRecords(size int) {
	for len(n.records) < size {
		n.records = append(n.records, &elemRecord{layers: make([]layerState, len(n.layers))})
	}
}

// takeRecords returns the records holding gradient, in batch-position
// order, and marks them consumed: a second fold in the same batch finds
// nothing. The list is network-owned scratch, valid until the next call.
func (n *Network) takeRecords() []*elemRecord {
	n.batch = n.batch[:0]
	for _, r := range n.records {
		if r.used {
			n.batch = append(n.batch, r)
			r.used = false
		}
	}
	return n.batch
}

// backwardElem runs sparse message-passing backpropagation for the element
// whose forward pass filled rec (§3.1): starting from the softmax
// cross-entropy gradient over the active output set, each layer propagates
// partial gradients only to the previous layer's active neurons through
// the connecting weights. It writes nothing but rec's deltas; the weight
// gradient — δ ⊗ layer input over the active rows, an s² fraction of the
// weights when both layers are s-sparse — is not formed here. The batch
// boundary replays it from the records, row by row in element order
// (fold.go), and steps Adam once per touched weight.
func (n *Network) backwardElem(st *elemState, rec *elemRecord, labels []int32) float64 {
	layers := rec.layers
	last := len(layers) - 1
	loss := outputDeltaAndLoss(&layers[last], labels)
	for li := last; li > 0; li-- {
		ls, prev := &layers[li], &layers[li-1]
		acc := st.acc[:len(prev.vals)]
		clear(acc)
		backLayerAcc(st, n.layers[li], ls, prev, acc)
		prev.delta = prev.delta[:len(prev.vals)]
		reluPrev := n.layers[li-1].cfg.Activation == ActReLU
		for t, d := range acc {
			if reluPrev && prev.vals[t] <= 0 {
				d = 0
			}
			prev.delta[t] = d
		}
	}
	rec.used = true
	return loss
}

// backLayerAcc accumulates the previous layer's activation gradient,
// acc += δ_j·w_j over the active rows j with a nonzero δ_j in active-set
// order, aligned with the input: for a dense input one AxpyRows row sum
// over those rows, for a sparse one a gather of the active input ids per
// row. l is never the first layer — nothing below it needs an activation
// gradient — so its rows are neuron rows.
func backLayerAcc(st *elemState, l *Layer, ls, in *layerState, acc []float32) {
	if in.full {
		terms := st.terms[:0]
		for a, dj := range ls.delta {
			if dj != 0 {
				terms = append(terms, vecmath.Term{K: ls.id(a), Coef: dj})
			}
		}
		st.terms = terms
		vecmath.AxpyRows(acc, l.w, terms)
		return
	}
	for a, dj := range ls.delta {
		if dj == 0 {
			continue
		}
		w := l.w[ls.id(a)]
		for t, i := range in.ids {
			acc[t] += dj * w[i]
		}
	}
}
