package core

import (
	"repro/internal/optim"
	"repro/internal/sparse"
)

// backwardElem runs sparse message-passing backpropagation for one batch
// element (§3.1): starting from the softmax cross-entropy gradient over
// the active output set, each layer propagates partial gradients only to
// the previous layer's active neurons through the connecting weights, and
// only those weights (an s² fraction when both layers are s-sparse)
// accumulate gradient.
//
// Gradient contributions land in the worker's private per-layer
// backShards (see shard.go): no cross-thread gradient writes exist at all,
// and the batch boundary folds the shards — there is nothing left for
// HOGWILD to race on. The Adam step then runs once per batch over exactly
// the touched weights (applyAdamBatch), so the per-parameter optimizer
// cost is amortized across the batch just like the sparse gradient work.
//
// In ModeBatchSync the element's active sets and deltas are captured into
// rec instead and accumulated deterministically after the batch.
func (n *Network) backwardElem(st *elemState, x sparse.Vector, labels []int32, rec *elemRecord) float64 {
	return n.backwardFrom(st, st.layers, x, labels, rec)
}

// backwardFrom is backwardElem over an explicit activation source: layers
// is normally the worker's own st.layers, but the OverlapExchange
// pipeline passes a fwdCapture's copy so the backward pass can run after
// the worker state was reused by the next batch's forward. st still
// supplies the worker-owned accumulator workspace and gradient shards.
func (n *Network) backwardFrom(st *elemState, layers []layerState, x sparse.Vector, labels []int32, rec *elemRecord) float64 {
	last := len(n.layers) - 1
	loss := outputDeltaAndLoss(&layers[last], labels)
	if rec != nil {
		rec.reset(len(n.layers))
	}
	if rec == nil && st.shards == nil {
		st.shards = n.backShardSet(st.wk)
	}
	for li := last; li >= 0; li-- {
		l := n.layers[li]
		ls := &layers[li]

		// The layer input view: the previous layer's active state, or
		// the example's sparse features for the first layer.
		inIds := x.Idx
		inVals := x.Val
		inFull := false
		if li > 0 {
			prev := &layers[li-1]
			inIds = prev.ids
			inVals = prev.vals
			inFull = prev.full
		}

		var acc []float32
		if li > 0 {
			acc = st.work.EnsureAcc(len(inVals))
			for i := range acc {
				acc[i] = 0
			}
		}

		if n.cfg.UpdateMode == optim.ModeBatchSync {
			backLayerAccOnly(l, ls, inIds, inVals, inFull, acc)
			rec.capture(li, ls, inIds, inVals, inFull, li == 0)
		} else {
			l.accumulateSharded(st.shards[li], ls, inIds, inVals, inFull, acc)
		}

		if li > 0 {
			prev := &layers[li-1]
			prev.delta = prev.delta[:len(prev.vals)]
			reluPrev := n.layers[li-1].cfg.Activation == ActReLU
			for t := range prev.delta {
				d := acc[t]
				if reluPrev && prev.vals[t] <= 0 {
					d = 0
				}
				prev.delta[t] = d
			}
		}
	}
	return loss
}

// backLayerAccOnly computes the previous layer's gradient accumulation
// without touching any shared state (the ModeBatchSync read phase).
func backLayerAccOnly(l *Layer, ls *layerState, inIds []int32, inVals []float32, inFull bool, acc []float32) {
	if acc == nil {
		return
	}
	forEachActive(ls, func(a int, j int32) {
		dj := ls.delta[a]
		if dj == 0 {
			return
		}
		w := l.w[j]
		if inFull {
			for i := range inVals {
				acc[i] += dj * w[i]
			}
		} else {
			for t, i := range inIds {
				acc[t] += dj * w[i]
			}
		}
	})
}

// forEachActive visits (position, neuron id) for every active neuron.
func forEachActive(ls *layerState, f func(a int, j int32)) {
	if ls.full {
		for j := range ls.vals {
			f(j, int32(j))
		}
		return
	}
	for a, j := range ls.ids {
		f(a, j)
	}
}

// layerRecord captures one layer's contribution of one element for the
// deterministic batch-synchronous accumulation.
type layerRecord struct {
	full   bool
	ids    []int32
	delta  []float32
	inFull bool
	inIds  []int32
	inVals []float32
}

// elemRecord captures a whole element.
type elemRecord struct {
	layers []layerRecord
	used   int
}

func (r *elemRecord) reset(numLayers int) {
	if cap(r.layers) < numLayers {
		r.layers = make([]layerRecord, numLayers)
	}
	r.layers = r.layers[:numLayers]
	r.used = numLayers
}

// capture copies the layer's active set, deltas and input view. The first
// layer's input aliases immutable dataset memory and is retained without
// copying.
func (r *elemRecord) capture(li int, ls *layerState, inIds []int32, inVals []float32, inFull, inIsDataset bool) {
	lr := &r.layers[li]
	lr.full = ls.full
	lr.ids = append(lr.ids[:0], ls.ids...)
	lr.delta = append(lr.delta[:0], ls.delta...)
	lr.inFull = inFull
	if inIsDataset {
		lr.inIds = inIds
		lr.inVals = inVals
		return
	}
	lr.inIds = append(lr.inIds[:0], inIds...)
	lr.inVals = append(lr.inVals[:0], inVals...)
}

// accumulateBatchSync folds all captured records into gradient state,
// sharding neurons across workers by id so every cell has exactly one
// writer and the sums are independent of thread count: each worker-shard
// replays into its own backShard, with no shared gradient memory at all.
func (n *Network) accumulateBatchSync(records []*elemRecord, workers int) {
	if workers < 1 {
		workers = 1
	}
	parallelIndexed(workers, workers, func(_, lo, hi int) {
		for shard := lo; shard < hi; shard++ {
			set := n.backShardSet(shard)
			for _, rec := range records {
				if rec == nil || rec.used == 0 {
					continue
				}
				for li := range rec.layers {
					replayRecordShard(n.layers[li], set[li], &rec.layers[li], shard, workers)
				}
			}
		}
	})
}
