package core

// colTrackThreshold is the fan-in above which a layer tracks which input
// columns were touched during a batch. Below it (e.g. the 128-wide hidden
// input of the output layer) scanning the full row is cheaper than
// maintaining a column list.
const colTrackThreshold = 512

// beginBatch advances every layer's batch epoch, invalidating the touched
// neuron/column stamps in O(1). On the rare epoch wrap the layer stamps
// and every registered backward shard's stamps are cleared, since stale
// stamps could otherwise collide with re-issued epoch values.
func (n *Network) beginBatch() {
	wrapped := false
	for _, l := range n.layers {
		l.batchEpoch++
		if l.batchEpoch == 0 { // stamp wrap: clear and restart
			for i := range l.touched {
				l.touched[i] = 0
			}
			for i := range l.colStamp {
				l.colStamp[i] = 0
			}
			l.batchEpoch = 1
			wrapped = true
		}
	}
	if wrapped {
		n.resetShardStamps()
	}
}

// applyAdamBatch performs a local (no exchange) batch's Adam step over
// exactly the weights that accumulated gradient: touched neurons' rows
// restricted to touched input columns (§3.1: "the fraction of weights that
// needs to be updated is s² only"). On the sharded path each layer's
// gradient is folded once per touched row and stepped straight from the
// folded row (stepFold); nothing is materialized in between. A run with a
// DeltaExchanger needs the batch gradient as an explicit SparseDelta to
// ship, so it goes ExtractDelta (the same fold, compacted) → exchange →
// ApplyDelta instead (exchangeAndApply); both step rows through stepRow and
// are bit-for-bit interchangeable. The legacy shared-gW path keeps
// extract-then-apply here.
//
// The stepped-cell count accumulates into n.touchedWeights, surfaced as
// TrainResult.TouchedPerIter and measured by the dist-comm experiment.
func (n *Network) applyAdamBatch(alpha, invB float32, workers int) {
	if n.kern.Fused() && n.layerShards != nil {
		for li, l := range n.layers {
			if l.beginFold(n.layerShards[li], workers) {
				n.touchedWeights += l.stepFold(n.adam, alpha, invB, workers)
				l.endFold()
			}
		}
		return
	}
	d := n.ExtractDelta(n.deltaScratch, workers)
	n.deltaScratch = d
	n.touchedWeights += d.Cells()
	for li, l := range n.layers {
		l.ApplyDelta(n.adam, &d.Layers[li], alpha, invB, workers)
	}
}

// applyAdamFused is the pre-SparseDelta fused accumulate-and-step path
// over the shared gW buffers. Training never runs it; it is kept as the
// bit-for-bit reference the extract/apply equivalence test
// (TestExtractApplyMatchesFusedAdam) compares against.
func (n *Network) applyAdamFused(alpha, invB float32, workers int) {
	for _, l := range n.layers {
		n.touchedWeights += l.applyAdamFused(n, alpha, invB, workers)
	}
}

func (l *Layer) applyAdamFused(n *Network, alpha, invB float32, workers int) int64 {
	epoch := l.batchEpoch
	cols := l.touchedColumns(workers)
	adam := n.adam
	counts := make([]int64, workers)
	parallelIndexed(workers, l.out, func(wk, lo, hi int) {
		var applied int64
		for j := lo; j < hi; j++ {
			if l.touched[j] != epoch {
				continue
			}
			w, m, v, g := l.w[j], l.mW[j], l.vW[j], l.gW[j]
			if cols == nil {
				for i := range g {
					if gi := g[i]; gi != 0 {
						adam.Step1(&w[i], &m[i], &v[i], gi*invB, alpha)
						if l.mirror != nil {
							l.mirror.Set(int32(j), int32(i), w[i])
						}
						g[i] = 0
						applied++
					}
				}
			} else {
				for _, i := range cols {
					if gi := g[i]; gi != 0 {
						adam.Step1(&w[i], &m[i], &v[i], gi*invB, alpha)
						if l.mirror != nil {
							l.mirror.Set(int32(j), i, w[i])
						}
						g[i] = 0
						applied++
					}
				}
			}
			if gb := l.gB[j]; gb != 0 {
				adam.Step1(&l.b[j], &l.mB[j], &l.vB[j], gb*invB, alpha)
				l.gB[j] = 0
				applied++
			}
		}
		counts[wk] = applied
	})
	var total int64
	for _, c := range counts {
		total += c
	}
	return total
}

// touchedColumns rebuilds the per-batch touched-column list from the
// column stamps, or returns nil when the layer iterates full rows.
func (l *Layer) touchedColumns(workers int) []int32 {
	if l.colStamp == nil {
		return nil
	}
	l.colList = l.scanStamps(l.colStamp, l.batchEpoch, workers, l.colList)
	return l.colList
}
