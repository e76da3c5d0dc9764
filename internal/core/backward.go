package core

import (
	"repro/internal/optim"
	"repro/internal/sparse"
	"repro/internal/vecmath"
)

// backwardElem runs sparse message-passing backpropagation for one batch
// element (§3.1): starting from the softmax cross-entropy gradient over
// the active output set, each layer propagates partial gradients only to
// the previous layer's active neurons through the connecting weights, and
// only those weights (an s² fraction when both layers are s-sparse)
// accumulate gradient.
//
// With the fused kernel engine (every mode but KernelLegacy), gradient
// contributions land in the worker's private per-layer backShards (see
// shard.go): no cross-thread gradient writes exist at all, and the batch
// boundary folds the shards into the SparseDelta. ModeHogwild and
// ModeAtomic become the same code on this path — there is nothing left to
// race on or to CAS. KernelLegacy keeps the original shared-buffer
// disciplines as the equivalence reference: HOGWILD racy stores
// (ModeHogwild), CAS adds (ModeAtomic), marking the touched neurons and
// input columns. The Adam step then runs once per batch over exactly the
// touched weights (applyAdamBatch), so the per-parameter optimizer cost is
// amortized across the batch just like the sparse gradient work.
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
	fused := n.kern.Fused()
	if fused && rec == nil && st.shards == nil {
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

		switch {
		case n.cfg.UpdateMode == optim.ModeBatchSync:
			backLayerAccOnly(l, ls, inIds, inVals, inFull, acc)
			rec.capture(li, ls, inIds, inVals, inFull, li == 0)
		case fused:
			l.accumulateSharded(st.shards[li], ls, inIds, inVals, inFull, acc)
		case n.cfg.UpdateMode == optim.ModeAtomic:
			l.accumulate(ls, inIds, inVals, inFull, acc, true, false)
		default:
			l.accumulate(ls, inIds, inVals, inFull, acc, false, false)
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

// accumulate fuses gradient accumulation toward the previous layer with
// pushing this element's weight/bias gradient contributions into the
// shared buffers. Weight values feed the accumulator before anything is
// written, preserving classical backprop semantics within the element.
// The inner loops are specialized per (input density, atomicity) because
// they execute once per active weight — the hottest code in training.
// With fused set (every kernel mode but legacy) the non-atomic rows run
// the vecmath outer-product kernels; the scalar reference loops survive
// in accRowLegacy for the equivalence tests. Rows are visited in whatever
// order ls.ids carries — ascending after a gather-form forward pass,
// which walks the weight and gradient slabs monotonically.
func (l *Layer) accumulate(ls *layerState, inIds []int32, inVals []float32, inFull bool, acc []float32, atomic, fused bool) {
	epoch := l.batchEpoch
	if l.colStamp != nil && !inFull {
		// Mark touched input columns once per element (racy same-value
		// stores; benign).
		for _, i := range inIds {
			l.colStamp[i] = epoch
		}
	}
	if ls.full {
		for j := range ls.vals {
			l.accRow(int32(j), ls.delta[j], epoch, inIds, inVals, inFull, acc, atomic, fused)
		}
		return
	}
	for a, j := range ls.ids {
		l.accRow(j, ls.delta[a], epoch, inIds, inVals, inFull, acc, atomic, fused)
	}
}

func (l *Layer) accRow(j int32, dj float32, epoch uint32, inIds []int32, inVals []float32, inFull bool, acc []float32, atomic, fused bool) {
	if dj == 0 {
		return
	}
	l.touched[j] = epoch
	w, g := l.w[j], l.gW[j]
	if atomic {
		l.accRowAtomic(j, dj, w, g, inIds, inVals, inFull, acc)
		return
	}
	if !fused {
		l.accRowLegacy(j, dj, w, g, inIds, inVals, inFull, acc)
		return
	}
	switch {
	case inFull && acc != nil:
		n := len(inVals)
		vecmath.OuterAcc(dj, inVals, w[:n], g[:n], acc[:n])
	case inFull:
		vecmath.Axpy(dj, inVals, g[:len(inVals)])
	case acc != nil:
		vecmath.SparseOuterAcc(dj, inIds, inVals, w, g, acc[:len(inIds)])
	default:
		vecmath.SparseAxpy(dj, inIds, inVals, g)
	}
	l.gB[j] += dj
}

// accRowLegacy is the pre-engine scalar row update, kept bit-for-bit as
// the reference the fused kernels are tested against.
func (l *Layer) accRowLegacy(j int32, dj float32, w, g []float32, inIds []int32, inVals []float32, inFull bool, acc []float32) {
	switch {
	case inFull && acc != nil:
		n := len(inVals)
		wn, gn, an := w[:n], g[:n], acc[:n]
		for i, x := range inVals {
			an[i] += dj * wn[i]
			gn[i] += dj * x
		}
	case inFull:
		gn := g[:len(inVals)]
		for i, x := range inVals {
			gn[i] += dj * x
		}
	case acc != nil:
		for t, i := range inIds {
			acc[t] += dj * w[i]
			g[i] += dj * inVals[t]
		}
	default:
		for t, i := range inIds {
			g[i] += dj * inVals[t]
		}
	}
	l.gB[j] += dj
}

// accRowAtomic is the ModeAtomic variant: CAS adds into the shared
// buffers; the element-private accumulator needs no atomicity.
func (l *Layer) accRowAtomic(j int32, dj float32, w, g []float32, inIds []int32, inVals []float32, inFull bool, acc []float32) {
	switch {
	case inFull && acc != nil:
		for i, x := range inVals {
			acc[i] += dj * w[i]
			optim.AtomicAdd(&g[i], dj*x)
		}
	case inFull:
		for i, x := range inVals {
			optim.AtomicAdd(&g[i], dj*x)
		}
	case acc != nil:
		for t, i := range inIds {
			acc[t] += dj * w[i]
			optim.AtomicAdd(&g[i], dj*inVals[t])
		}
	default:
		for t, i := range inIds {
			optim.AtomicAdd(&g[i], dj*inVals[t])
		}
	}
	optim.AtomicAdd(&l.gB[j], dj)
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
// writer and the sums are independent of thread count. On the fused path
// each worker-shard replays into its own backShard (no shared gradient
// memory at all); KernelLegacy keeps the direct shared-buffer replay as
// the equivalence reference.
func (n *Network) accumulateBatchSync(records []*elemRecord, workers int) {
	if workers < 1 {
		workers = 1
	}
	if n.kern.Fused() {
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
		return
	}
	parallelIndexed(workers, workers, func(_, lo, hi int) {
		for shard := lo; shard < hi; shard++ {
			for _, rec := range records {
				if rec == nil || rec.used == 0 {
					continue
				}
				for li := range rec.layers {
					accumulateRecordShard(n.layers[li], &rec.layers[li], shard, workers)
				}
			}
		}
	})
}

func accumulateRecordShard(l *Layer, lr *layerRecord, shard, shards int) {
	epoch := l.batchEpoch
	trackCols := l.colStamp != nil && shard == 0
	if trackCols && !lr.inFull {
		for _, i := range lr.inIds {
			l.colStamp[i] = epoch
		}
	}
	apply := func(a int, j int32) {
		if int(j)%shards != shard {
			return
		}
		dj := lr.delta[a]
		if dj == 0 {
			return
		}
		l.touched[j] = epoch
		g := l.gW[j]
		if lr.inFull {
			for i := range lr.inVals {
				g[i] += dj * lr.inVals[i]
			}
		} else {
			for t, i := range lr.inIds {
				g[i] += dj * lr.inVals[t]
			}
		}
		l.gB[j] += dj
	}
	if lr.full {
		for j := range lr.delta {
			apply(j, int32(j))
		}
		return
	}
	for a, j := range lr.ids {
		apply(a, j)
	}
}
