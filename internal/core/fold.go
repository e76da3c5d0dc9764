package core

import (
	"runtime"
	"slices"
	"sync/atomic"

	"repro/internal/optim"
	"repro/internal/vecmath"
)

// The update phase: every touched storage row is replayed by one owner, in
// element order.
//
// A batch's weight gradient is never stored whole. At the quiesced batch
// boundary each layer indexes the batch's records (backward.go) by touched
// storage row, on every worker at once (beginFold): each index worker owns
// a range of neurons and, on the input-major layer, a range of inputs; it
// counts the contributions to its own rows, waits once for every worker's
// counts, then lists its rows at their global position and places their
// contributions, so every row keeps them in batch-position order.
// Workers then claim the ascending rows in chunks of claimChunk from a
// shared cursor (claimRows). The owner of a row replays its
// contributions, each a coefficient times one element's operand vector, in
// ascending element order into one row and hands it to a consumer:
// stepFold runs the Adam step from a worker-owned row scratch (local
// training); compactFold folds each row into its own slot of a
// LayerDelta's row block (Network.ExtractDelta: the exchange payload and
// the public API), which ApplyDelta later steps with the same row step.
// No worker writes memory another reads.
//
// Rows follow the layer's orientation (see Layer):
//
//   - neuron-major: row j sums δ_j·input over the elements with a nonzero
//     δ_j. The row is full width (l.in floats) for a dense input — the
//     whole row one AxpyRows row sum over the elements' inputs — or a
//     sparse input of fan-in ≤ colTrackThreshold (SparseAxpy). A sparse
//     input of wide fan-in (a sampled first layer, on example features)
//     replays over the batch's touched input columns, ascending, each
//     record's ids mapped to their union positions once per batch
//     (IndexedAxpy), so a row costs O(touched columns), not O(fan-in).
//   - input-major: row i, one per feature present in the batch, sums
//     x_i·δ over the elements carrying feature i: one AxpyRows row sum
//     over their out-wide δ.
//
// Per cell this is the addition sequence of accumulating the batch's
// elements one after another on a single thread, whatever the worker
// count, so training bits do not depend on TrainConfig.Threads. Both
// orientations add the same products in the same element order: an
// input-major row also adds the ±0 products of elements whose δ_j is 0,
// which leave a nonzero sum unchanged, and a zero sum is never stepped.
// Biases are per neuron either way: a neuron's bias gradient sums its
// nonzero δ in element order, by the worker that owns the neuron.
//
// Claimed rows are rarely next to each other in memory on the input-major
// layer (a batch's features are a scattered few of the inputs), so the
// row walks hint the next claimed row's weights and moments into cache
// while the current one is stepped (prefetchRow).

// colTrackThreshold is the fan-in above which a neuron-major layer with
// sparse input replays rows over the batch's touched-column union. Below it
// (e.g. the 128-wide hidden input of the output layer) full rows are
// cheaper.
const colTrackThreshold = 512

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
	// ops[k] is record k's operand values: the row table of the replay's
	// AxpyRows calls.
	ops [][]float32
	// ent[rowOff[r]:rowOff[r+1]] is row r's contributions, ascending in
	// batch position: each one (row, element) term of the replay, Coef
	// times the operand of the element at batch position K — its δ_j on a
	// neuron-major row, its feature value on an input-major one.
	rowOff []int32
	ent    []vecmath.Term
	// cursor[row] is the storage row's next free slot of ent while the
	// index is placed; the input-major layer counts each input's
	// contributions in it first (a neuron-major layer counts in
	// Layer.hits).
	cursor []int32
	// parts[p] is index worker p's counts, arrived the number of workers
	// that have published theirs (arrive), and recPos[p] the worker's place
	// in every record while it places (placeNeurons).
	parts   []foldPart
	arrived atomic.Int32
	recPos  [][]int
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
	// applied[wk] is worker wk's stepped-cell count, and next the first
	// row no worker has claimed yet (claimRows).
	applied []int64
	next    atomic.Int64
}

// nextEpoch invalidates the touched column stamps in O(1), clearing them
// on the rare wrap, where stale stamps could collide with re-issued epoch
// values.
func (l *Layer) nextEpoch() {
	l.batchEpoch++
	if l.batchEpoch == 0 {
		clear(l.colStamp)
		l.batchEpoch = 1
	}
}

// foldPart is one index worker's counts: the neurons with a nonzero δ in
// its neuron range and those δ, and its storage rows with their
// contributions (the same two on a neuron-major layer).
type foldPart struct {
	neurons, nonzero int
	rows, cells      int
}

// placeBlock is the neurons a neuron-major index worker places at a time:
// their spans of ent (a few KiB at train_converge's density) and their
// cursors stay in L1 while every record's slice of them is placed.
const placeBlock = 512

// beginFold indexes the batch's records for the layer: the touched neurons
// with their bias gradients, each record's operand, the touched storage
// rows ascending with their contributions grouped in record order, the
// column union where the layer keeps one, and the per-worker row scratch.
// It reports false when no record carries gradient for the layer.
func (l *Layer) beginFold(recs []*elemRecord, workers int) bool {
	f := &l.fold
	l.nextEpoch()
	// Record k's operand is its layer input on a neuron-major layer, its δ
	// on the input-major one. Each record's entries bound the index's.
	f.in = growTo(f.in, len(recs))
	bound := 0
	for k, rec := range recs {
		ls := &rec.layers[l.idx]
		ids, vals, full := rec.input(l.idx)
		if l.inputMajor {
			f.in[k] = foldInput{ids: ls.ids, vals: ls.delta, full: ls.full}
			bound += len(ids)
		} else {
			f.in[k] = foldInput{ids: ids, vals: vals, full: full}
			bound += len(ls.delta)
		}
	}
	rows, width := l.StorageShape()
	f.ent = growTo(f.ent, bound)
	f.rowOff = growTo(f.rowOff, min(rows, bound)+1)
	l.rowList = growTo(l.rowList, l.out)
	if l.inputMajor {
		l.colList = growTo(l.colList, min(rows, bound))
	}
	w := max(1, min(workers, rows))
	f.parts = growTo(f.parts, w)
	f.recPos = growTo(f.recPos, w)
	f.arrived.Store(0)
	parallelIndexed(w, w, func(p, _, _ int) { l.indexPart(recs, p, w) })
	var total foldPart
	for _, part := range f.parts {
		total.neurons += part.neurons
		total.nonzero += part.nonzero
		total.rows += part.rows
		total.cells += part.cells
	}
	if total.nonzero == 0 {
		return false
	}
	f.neurons = l.rowList[:total.neurons]
	f.rows = f.neurons
	if l.inputMajor {
		f.rows = l.colList[:total.rows]
	}
	f.rowOff = f.rowOff[:total.rows+1]
	f.rowOff[total.rows] = int32(total.cells)
	f.ent = f.ent[:total.cells]
	f.cols, f.width = nil, width
	if l.colStamp != nil {
		f.cols = l.columnUnion(workers)
		f.width = len(f.cols)
	}
	f.ops = growTo(f.ops, len(recs))
	for k := range f.in {
		f.ops[k] = f.in[k].vals
	}
	f.rowBuf = growTo(f.rowBuf, workers)
	for wk := range f.rowBuf {
		f.rowBuf[wk] = growTo(f.rowBuf[wk], f.width)
	}
	return true
}

// indexPart is index worker p's share of beginFold's index, of w workers.
// The worker owns neurons [p·out/w, (p+1)·out/w) — their nonzero-δ counts
// and bias sums, and on a neuron-major layer their rows — and on the
// input-major layer the rows of inputs [p·in/w, (p+1)·in/w). Active ids
// are ascending, so a binary search finds the worker's slice of every
// record; features are not, so it filters them. It counts its rows'
// contributions, waits at the barrier for every worker's counts (arrive),
// then lists its neurons and rows where the workers before it end, lays
// out its rows' spans of ent and places their contributions, record by
// record. No worker reads what another writes, except the counts past the
// barrier.
func (l *Layer) indexPart(recs []*elemRecord, p, w int) {
	f := &l.fold
	nlo, nhi := int32(p*l.out/w), int32((p+1)*l.out/w)
	hits, bias := l.hits[nlo:nhi], f.bias[nlo:nhi]
	clear(hits)
	clear(bias)
	// A zero δ adds 0 to its neuron's count and ±0 to its bias sum, which
	// leaves the sum's bits alone (a sum that starts at +0 never becomes
	// -0), so the count does not branch on the zero pattern of a ReLU
	// layer's δ.
	for _, rec := range recs {
		ls := &rec.layers[l.idx]
		lo, hi := ls.span(nlo, nhi)
		if lo == hi {
			continue
		}
		delta := ls.delta[lo:hi]
		if ls.full {
			hits, bias := hits[int32(lo)-nlo:], bias[int32(lo)-nlo:]
			for a, d := range delta {
				hits[a] += nonZero(d)
				bias[a] += d
			}
			continue
		}
		for a, d := range delta {
			j := ls.ids[lo+a] - nlo
			hits[j] += nonZero(d)
			bias[j] += d
		}
	}
	var part foldPart
	for _, c := range hits {
		part.neurons += int(nonZero(c))
		part.nonzero += int(c)
	}
	if !l.inputMajor {
		part.rows, part.cells = part.neurons, part.nonzero
		at := f.arrive(p, part)
		neurons := l.rowList[at.neurons : at.neurons+part.neurons]
		listHit(hits, nlo, neurons)
		f.layout(neurons, l.hits, at.rows, at.cells)
		l.placeNeurons(recs, p, nlo, nhi)
		return
	}

	ilo, ihi := int32(p*l.in/w), int32((p+1)*l.in/w)
	counts := f.cursor[ilo:ihi]
	clear(counts)
	for _, rec := range recs {
		ids, _, _ := rec.input(l.idx)
		for _, i := range ids {
			if i >= ilo && i < ihi {
				counts[i-ilo]++
			}
		}
	}
	for _, c := range counts {
		part.rows += int(nonZero(c))
		part.cells += int(c)
	}
	at := f.arrive(p, part)
	listHit(hits, nlo, l.rowList[at.neurons:at.neurons+part.neurons])
	inputs := l.colList[at.rows : at.rows+part.rows]
	listHit(counts, ilo, inputs)
	f.layout(inputs, f.cursor, at.rows, at.cells)
	for k, rec := range recs {
		ids, vals, _ := rec.input(l.idx)
		for t, i := range ids {
			if i >= ilo && i < ihi {
				f.ent[f.cursor[i]] = vecmath.Term{K: int32(k), Coef: vals[t]}
				f.cursor[i]++
			}
		}
	}
}

// placeNeurons places the contributions to a neuron-major index worker's
// neurons [nlo, nhi), laid out already, placeBlock neurons at a time: each
// record's slice of a block, record by record, picking up where the
// record's slice of the block before ended.
func (l *Layer) placeNeurons(recs []*elemRecord, p int, nlo, nhi int32) {
	f := &l.fold
	pos := growTo(f.recPos[p], len(recs))
	f.recPos[p] = pos
	for k, rec := range recs {
		pos[k], _ = rec.layers[l.idx].span(nlo, nhi)
	}
	for blo := nlo; blo < nhi; blo += placeBlock {
		bhi := min(blo+placeBlock, nhi)
		for k, rec := range recs {
			ls := &rec.layers[l.idx]
			a := pos[k]
			for ; a < len(ls.delta); a++ {
				j := ls.id(a)
				if j >= bhi {
					break
				}
				if d := ls.delta[a]; d != 0 {
					f.ent[f.cursor[j]] = vecmath.Term{K: int32(k), Coef: d}
					f.cursor[j]++
				}
			}
			pos[k] = a
		}
	}
}

// nonZero is 1 for a nonzero (or NaN) v and 0 for ±0, which the compiler
// turns into a flag, not a branch.
func nonZero[T int32 | float32](v T) int32 {
	n := int32(0)
	if v != 0 {
		n = 1
	}
	return n
}

// listHit fills dst with the indices first+j whose count counts[j] is
// nonzero, ascending; dst holds exactly that many. An index is written
// whether or not it is hit — the next one overwrites a miss — so the scan
// does not branch on the hit pattern, and it stops at the last hit, never
// writing past dst.
func listHit(counts []int32, first int32, dst []int32) {
	for j, n := 0, 0; n < len(dst); j++ {
		dst[n] = first + int32(j)
		if counts[j] != 0 {
			n++
		}
	}
}

// arrive publishes index worker p's counts, waits until every worker has
// published its own, and returns the sums over the workers before p: where
// p's neurons, rows and contributions start.
//
// A waiter yields rather than sleeps: waking a sleeping thread took ~100
// µs at the median on a virtualized 2-vCPU Xeon, as long as a layer's
// whole count, and a yielding waiter lets a worker whose goroutine no idle
// thread has picked up yet run on the waiter's thread.
func (f *gradFold) arrive(p int, part foldPart) (at foldPart) {
	f.parts[p] = part
	f.arrived.Add(1)
	for int(f.arrived.Load()) < len(f.parts) {
		runtime.Gosched()
	}
	for _, q := range f.parts[:p] {
		at.neurons += q.neurons
		at.rows += q.rows
		at.cells += q.cells
	}
	return at
}

// layout gives rows, listed from row position r on with their
// contributions from ent position off on, their spans of ent: it turns
// their counts into rowOff, after which cursor[row] is the row's next free
// slot.
func (f *gradFold) layout(rows, counts []int32, r, off int) {
	o := int32(off)
	for _, j := range rows {
		c := counts[j]
		f.rowOff[r] = o
		f.cursor[j] = o
		o += c
		r++
	}
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
// aligned to f.cols on a column-union layer. A run of full-width operands —
// every contribution of a dense-input or input-major row — is one AxpyRows
// row sum over the operand table; sparse operands scatter one at a time.
// Each row is folded by exactly one worker.
func (l *Layer) foldRow(r int, g []float32) []float32 {
	f := &l.fold
	clear(g)
	ent := f.ent[f.rowOff[r]:f.rowOff[r+1]]
	for len(ent) > 0 {
		c, in, n := ent[0], &f.in[ent[0].K], 1
		switch {
		case f.cols != nil:
			vecmath.IndexedAxpy(c.Coef, in.pos, in.vals, g)
		case in.full:
			for n < len(ent) && f.in[ent[n].K].full {
				n++
			}
			vecmath.AxpyRows(g[:len(in.vals)], f.ops, ent[:n])
		default:
			vecmath.SparseAxpy(c.Coef, in.ids, in.vals, g)
		}
		ent = ent[n:]
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
	stepped := l.claimRows(workers, len(f.rows), func(wk, lo, hi int) int64 {
		var n int64
		for r := lo; r < hi; r++ {
			if r+1 < hi {
				l.prefetchRow(f.rows[r], f.rows[r+1], f.cols)
			}
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
	l.claimRows(workers, len(dst.Rows), func(_, lo, hi int) int64 {
		for r := lo; r < hi; r++ {
			l.foldRow(r, dst.Vals[r*w:(r+1)*w])
		}
		return 0
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
	n.allocTrainState()
	recs := n.takeRecords()
	for _, l := range n.layers {
		if l.beginFold(recs, workers) {
			n.touchedWeights += l.stepFold(n.adam, alpha, invB, workers)
		}
	}
}
