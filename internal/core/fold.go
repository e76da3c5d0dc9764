package core

import (
	"repro/internal/optim"
	"repro/internal/vecmath"
)

// The update phase: every touched row is replayed by one owner, in element
// order.
//
// A batch's weight gradient is never stored whole. At the quiesced batch
// boundary each layer indexes the batch's records (backward.go) by touched
// row — a stable counting pass over the records in batch-position order —
// and stepRows splits the ascending rows into contiguous spans across
// workers. The owner of a row replays the row's contributions δ_j·input in
// ascending element order into one worker-owned row scratch and hands the
// row straight to a consumer: stepFold runs the Adam step from it (local
// training), compactFold writes it into a CSR LayerDelta
// (Network.ExtractDelta: the exchange payload, top-k compression, the
// public API). No gradient row outlives its fold, and no worker writes
// memory another reads.
//
// Per cell this is the addition sequence of accumulating the batch's
// elements one after another on a single thread, whatever the worker
// count, so training bits do not depend on TrainConfig.Threads.
//
// The row scratch follows the layer's input, which is static per network:
//
//   - full width (l.in floats): a dense input, one vecmath.Axpy per
//     contribution, or a sparse input of fan-in ≤ colTrackThreshold,
//     SparseAxpy;
//   - column union: a sparse input of wide fan-in (the first layer, on
//     example features). The row holds the batch's touched input columns,
//     ascending, and each record's input ids are mapped to their union
//     positions once per batch (IndexedAxpy), so a row costs O(touched
//     columns), not O(fan-in).

// colTrackThreshold is the fan-in above which a layer with sparse input
// replays rows over the batch's touched-column union. Below it (e.g. the
// 128-wide hidden input of the output layer) full rows are cheaper.
const colTrackThreshold = 512

// contrib is one (row, element) term of the replay: the element at batch
// position k has delta d on the row.
type contrib struct {
	k int32
	d float32
}

// foldInput is one record's input to the folding layer.
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
	in   []foldInput // per batch position
	rows []int32     // touched rows, ascending (aliases Layer.rowList)
	// ent[rowOff[r]:rowOff[r+1]] is row r's contributions, ascending in k.
	rowOff []int32
	ent    []contrib
	// cursor[j] counts neuron j's contributions, then places them, while
	// the index is built.
	cursor []int32
	// cols is the column union, ascending (aliases Layer.colList), nil for
	// full-width rows; colPos[i] is column i's position in it, and posBuf
	// backs the inputs' pos slices.
	cols   []int32
	colPos []int32
	posBuf []int32
	// rowBuf[wk] is worker wk's row scratch.
	rowBuf [][]float32
	// applied[wk] is worker wk's stepped-cell count (stepRows); chunks[wk-1]
	// is worker wk's CSR output before concatenation (compactFold; worker 0
	// writes the destination directly).
	applied []int64
	chunks  []LayerDelta
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

// beginFold indexes the batch's records for the layer: each record's
// input, the touched rows (neurons with a non-zero δ in some record)
// ascending with their contributions grouped in record order, the column
// union where the layer keeps one, and the per-worker row scratch. It
// reports false when no record carries gradient for the layer.
func (l *Layer) beginFold(recs []*elemRecord, workers int) bool {
	f := &l.fold
	l.nextEpoch()
	epoch := l.batchEpoch
	if f.cursor == nil {
		f.cursor = make([]int32, l.out)
	}
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
				f.cursor[j] = 0
			}
			f.cursor[j]++
			total++
		}
	}
	if total == 0 {
		return false
	}
	f.rows = l.touchedRows(workers)
	f.rowOff = growTo(f.rowOff, len(f.rows)+1)
	var off int32
	for r, j := range f.rows {
		f.rowOff[r] = off
		off += f.cursor[j]
		f.cursor[j] = f.rowOff[r]
	}
	f.rowOff[len(f.rows)] = off
	f.ent = growTo(f.ent, total)
	for k, rec := range recs {
		ls := &rec.layers[l.idx]
		for a, d := range ls.delta {
			if d == 0 {
				continue
			}
			j := ls.id(a)
			f.ent[f.cursor[j]] = contrib{k: int32(k), d: d}
			f.cursor[j]++
		}
	}

	f.in = growTo(f.in, len(recs))
	for k, rec := range recs {
		ids, vals, full := rec.input(l.idx)
		f.in[k] = foldInput{ids: ids, vals: vals, full: full}
	}
	width := l.in
	f.cols = nil
	if l.colStamp != nil {
		f.cols = l.columnUnion(workers)
		width = len(f.cols)
	}
	f.rowBuf = growTo(f.rowBuf, workers)
	for wk := range f.rowBuf {
		f.rowBuf[wk] = growTo(f.rowBuf[wk], width)
	}
	return true
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

// foldRow replays touched row r's contributions, in element order, into
// worker wk's row scratch and returns the row's gradient — indexed by
// column, or aligned to f.cols on a column-union layer — and its bias
// gradient. Each row is folded by exactly one worker.
func (l *Layer) foldRow(r, wk int) (g []float32, gb float32) {
	f := &l.fold
	g = f.rowBuf[wk]
	clear(g)
	for _, c := range f.ent[f.rowOff[r]:f.rowOff[r+1]] {
		in := &f.in[c.k]
		switch {
		case f.cols != nil:
			vecmath.IndexedAxpy(c.d, in.pos, in.vals, g)
		case in.full:
			vecmath.Axpy(c.d, in.vals, g[:len(in.vals)])
		default:
			vecmath.SparseAxpy(c.d, in.ids, in.vals, g)
		}
		gb += c.d
	}
	return g, gb
}

// stepFold is the fold's local-training consumer: it folds each touched
// row and runs the Adam step straight from the folded row, skipping cells
// whose sum is exactly zero — cell for cell what compactFold followed by
// ApplyDelta does, without materializing the delta in between. Returns the
// number of cells stepped.
func (l *Layer) stepFold(adam optim.Adam, alpha, invB float32, workers int) int64 {
	f := &l.fold
	return l.stepRows(workers, len(f.rows), func(r, wk int) int64 {
		g, gb := l.foldRow(r, wk)
		return l.stepRow(adam, f.rows[r], f.cols, g, gb, alpha, invB, true)
	})
}

// compactFold is the fold's delta consumer: the CSR contract of
// LayerDelta (rows ascending, columns ascending within rows, zero cells
// skipped) appended to a reset dst. Workers compact contiguous row
// spans — worker 0, whose span comes first, straight into dst, the others
// into private chunks concatenated behind it in worker order — so each row
// is folded once and no counting pass is needed.
func (l *Layer) compactFold(dst *LayerDelta, workers int) {
	f := &l.fold
	if len(f.chunks) < workers-1 {
		f.chunks = append(f.chunks, make([]LayerDelta, workers-1-len(f.chunks))...)
	}
	for wk := range f.chunks {
		f.chunks[wk].reset()
	}
	dst.Rows = append(dst.Rows, f.rows...)
	dst.RowOff = append(dst.RowOff, 0)
	parallelIndexed(workers, len(f.rows), func(wk, lo, hi int) {
		c := dst
		if wk > 0 {
			c = &f.chunks[wk-1]
		}
		for r := lo; r < hi; r++ {
			g, gb := l.foldRow(r, wk)
			for u, s := range g {
				if s == 0 {
					continue
				}
				i := int32(u)
				if f.cols != nil {
					i = f.cols[u]
				}
				c.Cols = append(c.Cols, i)
				c.Vals = append(c.Vals, s)
			}
			c.Bias = append(c.Bias, gb)
			c.RowOff = append(c.RowOff, int32(len(c.Cols)))
		}
	})
	for wk := range f.chunks {
		c := &f.chunks[wk]
		base := int32(len(dst.Cols))
		for _, off := range c.RowOff {
			dst.RowOff = append(dst.RowOff, base+off)
		}
		dst.Cols = append(dst.Cols, c.Cols...)
		dst.Vals = append(dst.Vals, c.Vals...)
		dst.Bias = append(dst.Bias, c.Bias...)
	}
}

// extract folds the records' gradient for the layer into dst, an empty
// delta when none carries any.
func (l *Layer) extract(dst *LayerDelta, recs []*elemRecord, workers int) {
	dst.reset()
	if !l.beginFold(recs, workers) {
		dst.RowOff = append(dst.RowOff, 0)
		return
	}
	l.compactFold(dst, workers)
}

// applyAdamBatch performs a local (no exchange) batch's Adam step over
// exactly the weights that accumulated gradient: touched neurons' rows
// restricted to touched input columns (§3.1: "the fraction of weights that
// needs to be updated is s² only"). Each touched row is folded once and
// stepped straight from the folded row (stepFold); nothing is materialized
// in between. A run with a DeltaExchanger needs the batch gradient as an
// explicit SparseDelta to ship, so it goes ExtractDelta (the same fold,
// compacted) → exchange → ApplyDelta instead (exchangeAndApply); both step
// rows through stepRow and are bit-for-bit interchangeable. Without a
// backward pass since the last fold there is nothing to step.
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
