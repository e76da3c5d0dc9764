package core

import (
	"math"

	"repro/internal/kernels"
	"repro/internal/sparse"
	"repro/internal/vecmath"
)

// forwardMode selects how active sets are chosen during a pass.
type forwardMode int

const (
	// modeTrain samples active neurons and force-includes the true
	// labels at the output layer (§3.1: labels must be active so the
	// softmax sees its positives).
	modeTrain forwardMode = iota
	// modeEvalSampled samples active neurons without label forcing —
	// SLIDE's sub-linear inference path.
	modeEvalSampled
	// modeEvalFull activates every neuron (exact forward, used for
	// measuring accuracy).
	modeEvalFull
)

// forwardElem runs one batch element through the network (Algorithm 1
// lines 8-13): at each sampled layer the layer input is hashed, active
// neuron ids are retrieved from the tables (Algorithm 2), and only their
// activations are computed; all other activations are treated as zero.
// Each layer computes them with the kernel its weight orientation fixes
// (computeActivations).
func (n *Network) forwardElem(st *elemState, x sparse.Vector, labels []int32, mode forwardMode) {
	n.forward(st, st.layers, x, labels, mode)
}

// forward is forwardElem into explicit layer states: a training pass writes
// its batch position's record, which the backward pass and the batch fold
// read later. It runs as many layers as layers holds, so the batch-major
// exact pass (exactScores) runs the layers under the output one this way.
func (n *Network) forward(st *elemState, layers []layerState, x sparse.Vector, labels []int32, mode forwardMode) {
	st.passes++
	inIds := x.Idx
	inVals := x.Val
	inFull := false
	last := len(n.layers) - 1
	for li, l := range n.layers[:len(layers)] {
		ls := &layers[li]
		useAll := !l.Sampled() || mode == modeEvalFull
		if useAll {
			ls.reset(true, l.out)
			ls.sizeVals(l.out)
		} else {
			n.selectActive(st, ls, li, inIds, inVals, inFull, labels, mode == modeTrain && li == last)
			ls.sizeVals(len(ls.ids))
			st.activeSum[li] += int64(len(ls.ids))
			st.activeCount[li]++
		}
		l.computeActivations(ls, inIds, inVals, inFull)
		inIds = ls.ids
		inVals = ls.vals
		inFull = ls.full
	}
}

// selectActive fills ls.ids, layer li's active set in ascending id order,
// by hashing the layer input and querying the tables with the layer's
// strategy, force-including labels when asked, and falling back to a draw
// of Beta random neurons if retrieval comes back empty (possible right
// after initialization when buckets are sparse). Ids are deduplicated in
// the layer's picked bitset, which emits them sorted.
func (n *Network) selectActive(st *elemState, ls *layerState, li int, inIds []int32, inVals []float32, inFull bool, labels []int32, forceLabels bool) {
	l := n.layers[li]
	codes := st.codes[li]
	if inFull {
		l.fam.HashDense(inVals, codes)
	} else {
		// The previous layer's active ids are ascending and unique, a
		// sparse vector as they stand.
		l.fam.HashSparse(sparse.Vector{Dim: l.in, Idx: inIds, Val: inVals}, codes)
	}
	// Load the layer's current table set once per query: a rebuild may
	// publish a new generation mid-pass (a Predictor runs beside
	// training), but this query completes coherently on whichever set it
	// loaded.
	st.sampleBuf = st.strategies[li].Sample(st.sampleBuf[:0], l.tables.Load(), codes)
	ls.reset(false, len(st.sampleBuf)+len(labels))
	picked := 0
	for _, id := range st.sampleBuf {
		if st.pick(li, int32(id)) {
			picked++
		}
	}
	if forceLabels {
		for _, lab := range labels {
			if st.pick(li, lab) {
				picked++
			}
		}
	}
	if picked == 0 {
		n.fallbackActive(st, ls, li)
		return
	}
	ls.ids = st.emitPicked(li, ls.ids)
}

// fallbackActive fills an empty retrieval with Beta random neuron ids,
// emitted in ascending order. Below half the layer it rejection-samples
// distinct ids; at or above it the rejection loop degenerates into a
// coupon-collector scan (Beta near l.out needs ~out·ln(out) draws to find
// the last few free ids), so the fill switches to a deterministic
// wrap-around run from one random start — a single RNG draw, O(out) work,
// and still reproducible under a fixed seed.
func (n *Network) fallbackActive(st *elemState, ls *layerState, li int) {
	l := n.layers[li]
	want := l.cfg.Beta
	if want <= 0 {
		want = 32
	}
	if want > l.out {
		want = l.out
	}
	picked := 0
	if 2*want >= l.out {
		start := st.rng.Intn(l.out)
		for off := 0; off < l.out && picked < want; off++ {
			if st.pick(li, int32((start+off)%l.out)) {
				picked++
			}
		}
	} else {
		for picked < want {
			if st.pick(li, int32(st.rng.Intn(l.out))) {
				picked++
			}
		}
	}
	ls.ids = st.emitPicked(li, ls.ids)
}

// computeActivations computes the active set's activations with the
// layer's kernel and applies the non-linearity. Softmax normalizes over
// the active set only (§3.1).
//
//   - scatter, on the input-major layer: the full dense output
//     accumulates one contiguous out-wide weight row per input nonzero;
//     ls.vals doubles as the workspace.
//   - gather, on every other layer: active ids arrive ascending from
//     selectActive (locality for this pass's weight walk and the backward
//     pass that revisits the same rows), and each row runs one fused
//     dot+bias(+ReLU).
func (l *Layer) computeActivations(ls *layerState, inIds []int32, inVals []float32, inFull bool) {
	relu := l.cfg.Activation == ActReLU
	if l.inputMajor {
		kernels.ScatterForward(ls.vals, l.inputCols, l.b, inIds, inVals, relu)
	} else {
		ids := ls.ids
		if ls.full {
			ids = nil
		}
		kernels.GatherForward(ls.vals, ids, l.w, l.b, inIds, inVals, inFull, relu)
	}
	// ReLU is fused into the kernels above; linear is the identity.
	if l.cfg.Activation == ActSoftmax {
		vecmath.Softmax(ls.vals)
	}
}

// outputDeltaAndLoss fills the output layer's delta with the softmax
// cross-entropy gradient p - y (y uniform over the true labels, the
// multi-label convention of the reference implementation) and returns the
// cross-entropy loss over the active set. labels must be sorted ascending.
func outputDeltaAndLoss(ls *layerState, labels []int32) float64 {
	ls.delta = ls.delta[:len(ls.vals)]
	if len(labels) == 0 {
		copy(ls.delta, ls.vals)
		return 0
	}
	invLab := 1 / float32(len(labels))
	var loss float64
	for a := range ls.vals {
		p := ls.vals[a]
		if containsSortedLabel(labels, ls.id(a)) {
			ls.delta[a] = p - invLab
			loss -= float64(invLab) * math.Log(float64(max(p, 1e-30)))
		} else {
			ls.delta[a] = p
		}
	}
	return loss
}

func containsSortedLabel(labels []int32, c int32) bool {
	lo, hi := 0, len(labels)
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case labels[mid] < c:
			lo = mid + 1
		case labels[mid] > c:
			hi = mid
		default:
			return true
		}
	}
	return false
}
