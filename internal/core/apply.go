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
// needs to be updated is s² only"). Each layer's gradient is folded once
// per touched row and stepped straight from the folded row (stepFold);
// nothing is materialized in between. A run with a DeltaExchanger needs the
// batch gradient as an explicit SparseDelta to ship, so it goes
// ExtractDelta (the same fold, compacted) → exchange → ApplyDelta instead
// (exchangeAndApply); both step rows through stepRow and are bit-for-bit
// interchangeable. A network that never ran a backward pass has no shards
// and steps nothing.
//
// The stepped-cell count accumulates into n.touchedWeights, surfaced as
// TrainResult.TouchedPerIter.
func (n *Network) applyAdamBatch(alpha, invB float32, workers int) {
	if n.layerShards == nil {
		return
	}
	for li, l := range n.layers {
		if l.beginFold(n.layerShards[li], workers) {
			n.touchedWeights += l.stepFold(n.adam, alpha, invB, workers)
			l.endFold()
		}
	}
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
