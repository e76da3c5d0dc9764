package core

import (
	"slices"

	"repro/internal/optim"
	"repro/internal/vecmath"
)

// The update phase: every touched storage row is replayed by one owner, in
// element order.
//
// A batch's weight gradient is never stored whole. At the quiesced batch
// boundary each layer indexes the batch's records (backward.go) by touched
// storage row — a stable counting pass over the records in batch-position
// order — and stepSpans splits the ascending rows into contiguous spans
// across workers. The owner of a row replays its contributions, each a
// coefficient times one element's operand vector, in ascending element
// order into one row and hands it to a consumer: stepFold runs the Adam
// step from a worker-owned row scratch (local training); compactFold folds
// each row into its own slot of a LayerDelta's row block
// (Network.ExtractDelta: the exchange payload and the public API), which ApplyDelta later steps with the same row step. No
// worker writes memory another reads.
//
// Rows follow the layer's orientation (see Layer):
//
//   - neuron-major: row j sums δ_j·input over the elements with a nonzero
//     δ_j. The row is full width (l.in floats) for a dense input (Axpy) or
//     a sparse input of fan-in ≤ colTrackThreshold (SparseAxpy). A sparse
//     input of wide fan-in (a sampled first layer, on example features)
//     replays over the batch's touched input columns, ascending, each
//     record's ids mapped to their union positions once per batch
//     (IndexedAxpy), so a row costs O(touched columns), not O(fan-in).
//   - input-major: row i, one per feature present in the batch, sums
//     x_i·δ over the elements carrying feature i, one out-wide Axpy each.
//
// Per cell this is the addition sequence of accumulating the batch's
// elements one after another on a single thread, whatever the worker
// count, so training bits do not depend on TrainConfig.Threads. Both
// orientations add the same products in the same element order: an
// input-major row also adds the ±0 products of elements whose δ_j is 0,
// which leave a nonzero sum unchanged, and a zero sum is never stepped.
// Biases are per neuron either way: a neuron's bias gradient sums its
// nonzero δ in element order while the records are indexed.

// colTrackThreshold is the fan-in above which a neuron-major layer with
// sparse input replays rows over the batch's touched-column union. Below it
// (e.g. the 128-wide hidden input of the output layer) full rows are
// cheaper.
const colTrackThreshold = 512

// contrib is one (row, element) term of the replay: coef times the
// operand of the element at batch position k — its δ_j on a neuron-major
// row, its feature value on an input-major one.
type contrib struct {
	k    int32
	coef float32
}

// foldInput is one record's operand vector for the folding layer: its
// input on a neuron-major layer, its δ on the input-major one.
type foldInput struct {
	ids  []int32
	vals []float32
	full bool
	// pos maps ids to positions in the column union (column-union layers
	// only).
	pos []int32
}

// gradFold is one layer's view of a batch's gradient at the boundary. All
// of it is layer-owned and reused across batches under the batch-boundary
// single-writer rule: only the training loop's goroutine (or the caller of
// ExtractDelta/ApplyDelta) opens a fold.
type gradFold struct {
	in []foldInput // per batch position
	// rows are the touched storage rows, ascending: neurons on a
	// neuron-major layer (then rows == neurons), the batch's features on an
	// input-major one (aliases Layer.colList). neurons are the neurons with
	// a nonzero δ, ascending (aliases Layer.rowList), and bias[j] sums
	// neuron j's δ; it is valid at those neurons only.
	rows    []int32
	neurons []int32
	bias    []float32
	// ent[rowOff[r]:rowOff[r+1]] is row r's contributions, ascending in k.
	rowOff []int32
	ent    []contrib
	// cursor counts each row's contributions, then places them, while the
	// index is built: one slot per neuron, and per input on the input-major
	// layer.
	cursor []int32
	// cols is the column union, ascending (aliases Layer.colList), nil for
	// full-width rows; colPos[i] is column i's position in it, and posBuf
	// backs the inputs' pos slices.
	cols   []int32
	colPos []int32
	posBuf []int32
	// width is the length of a folded row: len(cols), or the storage row
	// width.
	width int
	// rowBuf[wk] is worker wk's row scratch (stepFold).
	rowBuf [][]float32
	// applied[wk] is worker wk's stepped-cell count (stepSpans).
	applied []int64
}

// nextEpoch invalidates the touched row and column stamps in O(1),
// clearing them on the rare wrap, where stale stamps could collide with
// re-issued epoch values.
func (l *Layer) nextEpoch() {
	l.batchEpoch++
	if l.batchEpoch == 0 {
		clear(l.touched)
		clear(l.colStamp)
		l.batchEpoch = 1
	}
}

// beginFold indexes the batch's records for the layer: the touched neurons
// with their bias gradients, each record's operand, the touched storage
// rows ascending with their contributions grouped in record order, the
// column union where the layer keeps one, and the per-worker row scratch.
// It reports false when no record carries gradient for the layer.
func (l *Layer) beginFold(recs []*elemRecord, workers int) bool {
	f := &l.fold
	l.nextEpoch()
	epoch, cursor := l.batchEpoch, f.cursor
	// The per-neuron counts index a neuron-major layer's rows; indexByInput
	// recounts by input.
	total := 0
	for _, rec := range recs {
		ls := &rec.layers[l.idx]
		for a, d := range ls.delta {
			if d == 0 {
				continue
			}
			j := ls.id(a)
			if l.touched[j] != epoch {
				l.touched[j] = epoch
				cursor[j] = 0
				f.bias[j] = 0
			}
			cursor[j]++
			f.bias[j] += d
			total++
		}
	}
	if total == 0 {
		return false
	}
	f.neurons = l.touchedRows(workers)
	f.in = growTo(f.in, len(recs))
	f.cols = nil
	_, f.width = l.StorageShape()
	if l.inputMajor {
		l.indexByInput(recs, workers)
	} else {
		// Rows are the touched neurons, each contribution (k, δ_j), and
		// record k's operand is its layer input.
		f.rows = f.neurons
		f.layout(total)
		for k, rec := range recs {
			ls := &rec.layers[l.idx]
			for a, d := range ls.delta {
				if d != 0 {
					j := ls.id(a)
					f.ent[cursor[j]] = contrib{k: int32(k), coef: d}
					cursor[j]++
				}
			}
			ids, vals, full := rec.input(l.idx)
			f.in[k] = foldInput{ids: ids, vals: vals, full: full}
		}
		if l.colStamp != nil {
			f.cols = l.columnUnion(workers)
			f.width = len(f.cols)
		}
	}
	f.rowBuf = growTo(f.rowBuf, workers)
	for wk := range f.rowBuf {
		f.rowBuf[wk] = growTo(f.rowBuf[wk], f.width)
	}
	return true
}

// indexByInput indexes the batch for the input-major layer: the rows are
// the features present in the records, ascending, each with its
// contributions (k, x_k[i]) in record order, and record k's operand is its
// δ.
func (l *Layer) indexByInput(recs []*elemRecord, workers int) {
	f := &l.fold
	epoch := l.batchEpoch
	total := 0
	for k, rec := range recs {
		ids, _, _ := rec.input(l.idx)
		for _, i := range ids {
			if l.colStamp[i] != epoch {
				l.colStamp[i] = epoch
				f.cursor[i] = 0
			}
			f.cursor[i]++
		}
		total += len(ids)
		ls := &rec.layers[l.idx]
		f.in[k] = foldInput{ids: ls.ids, vals: ls.delta, full: ls.full}
	}
	l.colList = l.scanStamps(l.colStamp, epoch, workers, l.colList)
	f.rows = l.colList
	f.layout(total)
	for k, rec := range recs {
		ids, vals, _ := rec.input(l.idx)
		for t, i := range ids {
			f.ent[f.cursor[i]] = contrib{k: int32(k), coef: vals[t]}
			f.cursor[i]++
		}
	}
}

// layout turns the per-row counts in cursor into rowOff over rows and sizes
// ent for total contributions; afterwards cursor[row] is the row's next
// free slot.
func (f *gradFold) layout(total int) {
	f.rowOff = growTo(f.rowOff, len(f.rows)+1)
	var off int32
	for r, j := range f.rows {
		f.rowOff[r] = off
		off += f.cursor[j]
		f.cursor[j] = f.rowOff[r]
	}
	f.rowOff[len(f.rows)] = off
	f.ent = growTo(f.ent, total)
}

// columnUnion stamps the batch inputs' columns, collects them ascending
// and maps every input's ids to their positions in the union.
func (l *Layer) columnUnion(workers int) []int32 {
	f := &l.fold
	cells := 0
	for _, in := range f.in {
		for _, i := range in.ids {
			l.colStamp[i] = l.batchEpoch
		}
		cells += len(in.ids)
	}
	l.colList = l.scanStamps(l.colStamp, l.batchEpoch, workers, l.colList)
	f.colPos = growTo(f.colPos, l.in)
	for u, i := range l.colList {
		f.colPos[i] = int32(u)
	}
	f.posBuf = growTo(f.posBuf, cells)
	cells = 0
	for k := range f.in {
		in := &f.in[k]
		in.pos = f.posBuf[cells : cells+len(in.ids)]
		for t, i := range in.ids {
			in.pos[t] = f.colPos[i]
		}
		cells += len(in.ids)
	}
	return l.colList
}

// growTo returns s resized to n elements, reallocating only when the
// capacity is short. Contents are unspecified.
func growTo[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// foldRow replays touched row r's contributions, in element order, into g
// (f.width values) and returns it: the row's gradient indexed by column, or
// aligned to f.cols on a column-union layer. Each row is folded by exactly
// one worker.
func (l *Layer) foldRow(r int, g []float32) []float32 {
	f := &l.fold
	clear(g)
	for _, c := range f.ent[f.rowOff[r]:f.rowOff[r+1]] {
		in := &f.in[c.k]
		switch {
		case f.cols != nil:
			vecmath.IndexedAxpy(c.coef, in.pos, in.vals, g)
		case in.full:
			vecmath.Axpy(c.coef, in.vals, g[:len(in.vals)])
		default:
			vecmath.SparseAxpy(c.coef, in.ids, in.vals, g)
		}
	}
	return g
}

// stepFold is the fold's local-training consumer: it folds each touched
// row into its worker's scratch and runs the Adam step straight from it,
// then steps the touched neurons' biases — cell for cell what compactFold
// followed by ApplyDelta does, without materializing the delta in between.
// Returns the number of cells stepped.
func (l *Layer) stepFold(adam optim.Adam, alpha, invB float32, workers int) int64 {
	f := &l.fold
	stepped := l.stepSpans(workers, len(f.rows), func(wk, lo, hi int) int64 {
		var n int64
		for r := lo; r < hi; r++ {
			n += l.stepRow(adam, f.rows[r], f.cols, l.foldRow(r, f.rowBuf[wk]), alpha, invB)
		}
		return n
	})
	for _, j := range f.neurons {
		stepped += l.stepBias(adam, j, f.bias[j], alpha, invB)
	}
	return stepped
}

// compactFold is the fold's delta consumer: it fills a reset dst with the
// touched storage rows, each folded straight into its own slot of the row
// block by the worker that owns the row, the column union where the layer
// keeps one, and the touched neurons with their bias gradients. A
// column-union layer whose batch touched no column has no cells, and
// carries its biases only.
func (l *Layer) compactFold(dst *LayerDelta, workers int) {
	f := &l.fold
	switch {
	case f.cols == nil:
		dst.Cols = nil
		dst.Rows = append(dst.Rows, f.rows...)
	case len(f.cols) > 0:
		dst.Cols = append(dst.Cols, f.cols...)
		dst.Rows = append(dst.Rows, f.rows...)
	}
	w := f.width
	// Grown like append: the delta's size creeps up over early batches.
	dst.Vals = slices.Grow(dst.Vals, len(dst.Rows)*w)[:len(dst.Rows)*w]
	parallelIndexed(workers, len(dst.Rows), func(_, lo, hi int) {
		for r := lo; r < hi; r++ {
			l.foldRow(r, dst.Vals[r*w:(r+1)*w])
		}
	})
	dst.Neurons = append(dst.Neurons, f.neurons...)
	for _, j := range f.neurons {
		dst.Bias = append(dst.Bias, f.bias[j])
	}
}

// extract folds the records' gradient for the layer into dst, an empty
// delta when none carries any.
func (l *Layer) extract(dst *LayerDelta, recs []*elemRecord, workers int) {
	dst.reset()
	if l.beginFold(recs, workers) {
		l.compactFold(dst, workers)
	}
}

// applyAdamBatch performs a local (no exchange) batch's Adam step over
// exactly the weights that accumulated gradient: touched neurons' rows
// restricted to touched input columns (§3.1: "the fraction of weights that
// needs to be updated is s² only"). Each touched row is folded once and
// stepped straight from the folded row (stepFold); nothing is materialized
// in between. A run with a DeltaExchanger needs the batch gradient as an
// explicit SparseDelta to ship, so it goes ExtractDelta (the same fold,
// into a row block) → exchange → ApplyDelta instead (exchangeAndApply);
// both step rows through stepRow and are bit-for-bit interchangeable.
// Without a backward pass since the last fold there is nothing to step.
//
// The stepped-cell count accumulates into n.touchedWeights, surfaced as
// TrainResult.TouchedPerIter.
func (n *Network) applyAdamBatch(alpha, invB float32, workers int) {
	recs := n.takeRecords()
	for _, l := range n.layers {
		if l.beginFold(recs, workers) {
			n.touchedWeights += l.stepFold(n.adam, alpha, invB, workers)
		}
	}
}
