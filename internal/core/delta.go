package core

import (
	"fmt"

	"repro/internal/optim"
)

// SparseDelta is one batch's gradient in explicit, first-class form: for
// every layer, the touched neuron rows, the touched input columns within
// each row, the raw accumulated gradient sums, and the bias gradients.
// This is exactly the s²-sparse payload §3.1 argues a batch produces and
// §6 proposes shipping between data-parallel replicas ("communication
// costs are minimal due to sparse gradients"): Network.ExtractDelta folds
// the batch's records into this form at a batch boundary, replicas
// exchange and merge deltas (internal/dist), and Layer.ApplyDelta performs
// the Adam step over exactly the delta's cells.
//
// Values are raw sums, not batch averages: the consumer passes 1/B (or
// 1/(B*shards) after a data-parallel merge) to ApplyDelta, so merging is a
// plain cell-wise sum and the merged step equals the step a single process
// would take on the combined batch.
type SparseDelta struct {
	// Layers holds one LayerDelta per network layer, in layer order.
	Layers []LayerDelta
}

// LayerDelta is one layer's slice of a SparseDelta, in compressed
// sparse-row form over (touched neuron, touched input column).
type LayerDelta struct {
	// Rows lists the touched neuron ids, strictly ascending.
	Rows []int32
	// RowOff has len(Rows)+1 entries; row Rows[r]'s column span is
	// Cols[RowOff[r]:RowOff[r+1]] (and the matching Vals span).
	RowOff []int32
	// Cols lists the touched input columns per row, strictly ascending
	// within each row's span.
	Cols []int32
	// Vals holds the raw accumulated gradient sums aligned with Cols.
	Vals []float32
	// Bias holds the raw bias gradient aligned with Rows; 0 means the
	// row's bias accumulated no gradient and receives no step, matching
	// stepFold's skip.
	Bias []float32
}

// reset prepares d for reuse with the given layer count, keeping all
// backing arrays.
func (d *SparseDelta) reset(layers int) {
	if cap(d.Layers) < layers {
		d.Layers = make([]LayerDelta, layers)
	}
	d.Layers = d.Layers[:layers]
	for i := range d.Layers {
		d.Layers[i].reset()
	}
}

func (ld *LayerDelta) reset() {
	ld.Rows = ld.Rows[:0]
	ld.RowOff = ld.RowOff[:0]
	ld.Cols = ld.Cols[:0]
	ld.Vals = ld.Vals[:0]
	ld.Bias = ld.Bias[:0]
}

// Cells returns the number of gradient cells the delta carries — weight
// cells plus non-zero bias entries. This is the TouchedPerIter payload
// unit and the quantity a distributed replica serializes.
func (d *SparseDelta) Cells() int64 {
	var total int64
	for i := range d.Layers {
		ld := &d.Layers[i]
		total += int64(len(ld.Vals))
		for _, b := range ld.Bias {
			if b != 0 {
				total++
			}
		}
	}
	return total
}

// Clone returns a deep copy, for callers that must retain a delta past
// the producer's next reuse of its scratch buffers.
func (d *SparseDelta) Clone() *SparseDelta {
	out := &SparseDelta{Layers: make([]LayerDelta, len(d.Layers))}
	for i := range d.Layers {
		ld := &d.Layers[i]
		out.Layers[i] = LayerDelta{
			Rows:   append([]int32(nil), ld.Rows...),
			RowOff: append([]int32(nil), ld.RowOff...),
			Cols:   append([]int32(nil), ld.Cols...),
			Vals:   append([]float32(nil), ld.Vals...),
			Bias:   append([]float32(nil), ld.Bias...),
		}
	}
	return out
}

// DeltaExchanger merges one replica's batch gradient with its peers'
// (§6: data-parallel SLIDE with sparse-gradient exchange). Train calls
// Exchange once per batch with the locally extracted delta; the returned
// delta — the cell-wise sum over all shards, identical on every replica —
// is what the Adam step applies with invB = 1/(BatchSize*Shards).
//
// stop coordinates early termination: a replica that wants to stop
// (target accuracy reached, deadline, context cancelled) keeps exchanging
// with stop=true, and once any replica signals it, every replica receives
// stopAll=true and breaks after applying that batch's merged delta, so
// all replicas halt at the same step with identical weights.
//
// local is only valid for the duration of the call (the trainer reuses
// its buffers next batch); implementations must copy or encode what they
// retain. The returned delta stays valid until the rank's next Exchange
// call and may be shared read-only between replicas.
type DeltaExchanger interface {
	Exchange(step int64, local *SparseDelta, stop bool) (merged *SparseDelta, stopAll bool, err error)
}

// ShardCounter is optionally implemented by exchangers that know their
// group size. TrainContext cross-checks it against TrainConfig.Shards:
// a mismatch would silently mis-scale the Adam step (wrong invB) or —
// if ranks disagreed — diverge the replicas' weights.
type ShardCounter interface {
	Shards() int
}

// ExtractDelta drains the gradient of the backward passes since the last
// update into dst (reused when non-nil) and returns it: each layer's
// touched rows are replayed from the batch's records (compactFold) and the
// records consumed, so a second extraction in the same batch is empty, and
// extract-then-ApplyDelta is bit-for-bit the local stepFold path split in
// two. A network that never ran a backward pass extracts an empty delta.
// Must run at a batch boundary (no concurrent backward). workers <= 0
// selects GOMAXPROCS.
func (n *Network) ExtractDelta(dst *SparseDelta, workers int) *SparseDelta {
	if workers <= 0 {
		workers = defaultThreads()
	}
	if dst == nil {
		dst = &SparseDelta{}
	}
	dst.reset(len(n.layers))
	recs := n.takeRecords()
	for li, l := range n.layers {
		l.extract(&dst.Layers[li], recs, workers)
	}
	return dst
}

// ApplyDelta performs the per-cell Adam step over exactly the delta's
// cells, averaging raw sums by invB: w -= alpha*m̂/(sqrt(v̂)+eps) with
// gradient Vals[k]*invB per cell and Bias[r]*invB per non-zero bias. It
// returns the number of cells applied. The delta must be well-formed
// (ascending in-range rows and columns, as produced by ExtractDelta,
// MergeDeltas or the dist codec); shape mismatches are rejected.
// workers <= 0 selects GOMAXPROCS.
func (n *Network) ApplyDelta(d *SparseDelta, alpha, invB float32, workers int) (int64, error) {
	if workers <= 0 {
		workers = defaultThreads()
	}
	if len(d.Layers) != len(n.layers) {
		return 0, fmt.Errorf("core: delta has %d layers, network has %d", len(d.Layers), len(n.layers))
	}
	// Validate every layer before touching any weights: a delta
	// malformed only in a later layer must not leave the earlier layers
	// partially stepped (a caller retrying after the error would
	// double-apply them).
	for li, l := range n.layers {
		if err := l.checkDelta(&d.Layers[li]); err != nil {
			return 0, fmt.Errorf("core: layer %d: %w", li, err)
		}
	}
	var total int64
	for li, l := range n.layers {
		total += l.ApplyDelta(n.adam, &d.Layers[li], alpha, invB, workers)
	}
	return total, nil
}

// checkDelta validates a layer delta's shape against the layer: row span
// bounds and consistency between Rows, RowOff, Cols/Vals and Bias.
// Ascending order inside spans is the producer's contract (ExtractDelta,
// MergeDeltas and the dist codec all guarantee it) and is not re-checked
// on this hot path.
func (l *Layer) checkDelta(ld *LayerDelta) error {
	nr := len(ld.Rows)
	if len(ld.RowOff) != nr+1 || len(ld.Bias) != nr {
		return fmt.Errorf("inconsistent delta: %d rows, %d offsets, %d biases", nr, len(ld.RowOff), len(ld.Bias))
	}
	if nr == 0 {
		return nil
	}
	if ld.Rows[0] < 0 || int(ld.Rows[nr-1]) >= l.out {
		return fmt.Errorf("row id out of range [0,%d)", l.out)
	}
	nnz := int(ld.RowOff[nr])
	if ld.RowOff[0] != 0 || nnz != len(ld.Cols) || nnz != len(ld.Vals) {
		return fmt.Errorf("inconsistent delta spans: offsets end %d, %d cols, %d vals", nnz, len(ld.Cols), len(ld.Vals))
	}
	// Monotonicity first, for every span: a RowOff that spikes above nnz
	// and comes back down would otherwise pass the end-sum check and
	// send the column probe below out of bounds.
	for r := 0; r < nr; r++ {
		if ld.RowOff[r] > ld.RowOff[r+1] {
			return fmt.Errorf("row %d has negative span", ld.Rows[r])
		}
	}
	for r := 0; r < nr; r++ {
		lo, hi := ld.RowOff[r], ld.RowOff[r+1]
		if lo < hi && (ld.Cols[lo] < 0 || int(ld.Cols[hi-1]) >= l.in) {
			return fmt.Errorf("row %d column out of range [0,%d)", ld.Rows[r], l.in)
		}
	}
	return nil
}

// scanSpan is the least number of stamps worth a scanStamps worker of its
// own (a 128 KiB read, tens of microseconds).
const scanSpan = 1 << 15

// touchedRows rebuilds the ascending list of rows touched this batch from
// the neuron stamps.
func (l *Layer) touchedRows(workers int) []int32 {
	l.rowList = l.scanStamps(l.touched, l.batchEpoch, workers, l.rowList)
	return l.rowList
}

// scanStamps collects the ascending indices whose stamp equals epoch into
// dst (reused), parallelized across workers — the shared machinery behind
// the per-batch touched-row and touched-column lists. The per-worker
// partial lists live on the layer, so a warm scan allocates nothing; like
// every caller it runs with training quiesced.
// A worker gets at least scanSpan stamps: below that a goroutine costs more
// than the scan it takes over.
func (l *Layer) scanStamps(stamps []uint32, epoch uint32, workers int, dst []int32) []int32 {
	workers = max(min(workers, len(stamps)/scanSpan), 1)
	if len(l.scanParts) < workers {
		l.scanParts = append(l.scanParts, make([][]int32, workers-len(l.scanParts))...)
	}
	parts := l.scanParts[:workers]
	for w := range parts {
		parts[w] = parts[w][:0]
	}
	parallelIndexed(workers, len(stamps), func(w, lo, hi int) {
		local := parts[w]
		for i := lo; i < hi; i++ {
			if stamps[i] == epoch {
				local = append(local, int32(i))
			}
		}
		parts[w] = local
	})
	dst = dst[:0]
	for _, p := range parts {
		dst = append(dst, p...)
	}
	return dst
}

// ApplyDelta runs one Adam step over exactly the delta's cells (gradient
// Vals*invB) and non-zero biases, returning the number of cells stepped.
// It steps rows through stepRow, the same row kernel the local training
// path's stepFold uses, so the two cannot drift apart numerically.
func (l *Layer) ApplyDelta(adam optim.Adam, ld *LayerDelta, alpha, invB float32, workers int) int64 {
	return l.stepRows(workers, len(ld.Rows), func(r, _ int) int64 {
		a, b := ld.RowOff[r], ld.RowOff[r+1]
		return l.stepRow(adam, ld.Rows[r], ld.Cols[a:b], ld.Vals[a:b], ld.Bias[r], alpha, invB, false)
	})
}

// stepRows calls step(r, worker) for every r in [0, n), contiguous spans in
// parallel across workers, and returns the total of the counts step
// returns. Each row has a single writer.
func (l *Layer) stepRows(workers, n int, step func(r, wk int) int64) int64 {
	f := &l.fold
	f.applied = growTo(f.applied, max(workers, 1))
	clear(f.applied)
	parallelIndexed(workers, n, func(wk, lo, hi int) {
		var applied int64
		for r := lo; r < hi; r++ {
			applied += step(r, wk)
		}
		f.applied[wk] = applied
	})
	var total int64
	for _, c := range f.applied {
		total += c
	}
	return total
}

// stepRow is the one Adam row step of the update phase: row j's cells
// cols[k] (column k when cols is nil) with raw gradient sums g[k], then its
// bias with raw sum gb, all averaged by invB. skipZero leaves cells whose
// sum is exactly zero unstepped (a folded row carries them; a delta does
// not). The per-row decision is hoisted out of the cell loop: a layer
// carrying a column-major kernel mirror dual-writes the stepped cells into
// it, keeping the scatter-form forward operand coherent for one extra store
// per touched weight. Returns the number of cells stepped, bias included.
func (l *Layer) stepRow(adam optim.Adam, j int32, cols []int32, g []float32, gb, alpha, invB float32, skipZero bool) int64 {
	w := l.w[j]
	stepped := adam.StepCells(w, l.mW[j], l.vW[j], cols, g, invB, alpha, skipZero)
	if stepped > 0 && l.mirror != nil {
		l.mirror.SetRow(j, cols, g, w, skipZero)
	}
	if gb != 0 {
		adam.Step1(&l.b[j], &l.mB[j], &l.vB[j], gb*invB, alpha)
		stepped++
	}
	return int64(stepped)
}

// MergeDeltas sums parts cell-wise into dst (reused when non-nil) and
// returns it: the union of the parts' rows and columns, with coincident
// cells and biases summed in part order. Every replica merging the same
// parts in the same order therefore produces bit-identical results —
// the invariant that keeps data-parallel replicas' weights in lockstep.
// A single part is returned as-is without copying.
func MergeDeltas(dst *SparseDelta, parts []*SparseDelta) (*SparseDelta, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("core: merging zero deltas")
	}
	if len(parts) == 1 {
		return parts[0], nil
	}
	layers := len(parts[0].Layers)
	for _, p := range parts[1:] {
		if len(p.Layers) != layers {
			return nil, fmt.Errorf("core: merging deltas with %d and %d layers", layers, len(p.Layers))
		}
	}
	if dst == nil {
		dst = &SparseDelta{}
	}
	dst.reset(layers)
	lds := make([]*LayerDelta, len(parts))
	for li := 0; li < layers; li++ {
		for k, p := range parts {
			lds[k] = &p.Layers[li]
		}
		mergeLayerDeltas(&dst.Layers[li], lds)
	}
	return dst, nil
}

// mergeLayerDeltas is the per-layer k-way merge over (row, col), ascending.
func mergeLayerDeltas(dst *LayerDelta, parts []*LayerDelta) {
	cur := make([]int, len(parts)) // row cursor per part
	// Per-row column-merge cursors, reused across rows: this runs once
	// per merged row on the exchange hot path (and under the Mesh lock),
	// so it must not allocate per row.
	cols := make([]int, 0, len(parts))  // column cursor per participating part
	owner := make([]int, 0, len(parts)) // part index aligned with cols
	colHi := make([]int, 0, len(parts)) // span end aligned with cols
	dst.RowOff = append(dst.RowOff, 0)
	for {
		row := int32(-1)
		for k, p := range parts {
			if cur[k] >= len(p.Rows) {
				continue
			}
			if r := p.Rows[cur[k]]; row < 0 || r < row {
				row = r
			}
		}
		if row < 0 {
			return
		}
		var bias float32
		cols, owner, colHi = cols[:0], owner[:0], colHi[:0]
		for k, p := range parts {
			if cur[k] >= len(p.Rows) || p.Rows[cur[k]] != row {
				continue
			}
			r := cur[k]
			bias += p.Bias[r]
			cols = append(cols, int(p.RowOff[r]))
			colHi = append(colHi, int(p.RowOff[r+1]))
			owner = append(owner, k)
			cur[k]++
		}
		for {
			col := int32(-1)
			for c := range cols {
				if cols[c] >= colHi[c] {
					continue
				}
				if v := parts[owner[c]].Cols[cols[c]]; col < 0 || v < col {
					col = v
				}
			}
			if col < 0 {
				break
			}
			var sum float32
			for c := range cols {
				if cols[c] < colHi[c] && parts[owner[c]].Cols[cols[c]] == col {
					sum += parts[owner[c]].Vals[cols[c]]
					cols[c]++
				}
			}
			dst.Cols = append(dst.Cols, col)
			dst.Vals = append(dst.Vals, sum)
		}
		dst.Rows = append(dst.Rows, row)
		dst.Bias = append(dst.Bias, bias)
		dst.RowOff = append(dst.RowOff, int32(len(dst.Cols)))
	}
}
