package core

import (
	"runtime"
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
// ascending element order into a worker-owned row scratch and runs the
// Adam step straight from it (stepFold). The records are the batch's own
// in local training, or views of a SparseDelta's factors in ApplyDelta —
// one replica's batch, or every replica's in rank order after a
// data-parallel merge — so the fold is the one code that turns records
// into a step. No worker writes memory another reads.
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
// ApplyDelta) opens a fold.
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
	// rowBuf[wk] is worker wk's row scratch.
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

// stepFold is the fold's consumer: it folds each touched row into its
// worker's scratch and runs the Adam step straight from it, then steps the
// touched neurons' biases. seed keys the update's moment rounding
// (momentKey). Returns the number of cells stepped.
func (l *Layer) stepFold(adam optim.Adam, seed uint64, alpha, invB float32, workers int) int64 {
	f := &l.fold
	stepped := l.claimRows(workers, len(f.rows), func(wk, lo, hi int) int64 {
		var n int64
		for r := lo; r < hi; r++ {
			if r+1 < hi {
				l.prefetchRow(f.rows[r], f.rows[r+1], f.cols)
			}
			n += l.stepRow(adam, seed, f.rows[r], f.cols, l.foldRow(r, f.rowBuf[wk]), alpha, invB)
		}
		return n
	})
	for _, j := range f.neurons {
		stepped += l.stepBias(adam, j, f.bias[j], alpha, invB)
	}
	return stepped
}

// applyAdamBatch performs a local (no exchange) batch's Adam step over
// exactly the weights that accumulated gradient: touched neurons' rows
// restricted to touched input columns (§3.1: "the fraction of weights that
// needs to be updated is s² only"). A run with a DeltaExchanger ships the
// records instead (ExtractDelta → exchange → ApplyDelta), and ApplyDelta
// folds them with the same stepRecords. Without a backward pass since the
// last fold there is nothing to step.
//
// The stepped-cell count accumulates into n.touchedWeights, surfaced as
// TrainResult.TouchedPerIter.
func (n *Network) applyAdamBatch(alpha, invB float32, workers int) {
	n.allocTrainState()
	n.touchedWeights += n.stepRecords(n.takeRecords(), alpha, invB, workers)
}

// stepRecords folds recs layer by layer and steps every touched weight
// once, returning the number of cells stepped. It is one Adam update: it
// advances n.updates, whose count keys the update's moment rounding in
// every layer.
func (n *Network) stepRecords(recs []*elemRecord, alpha, invB float32, workers int) int64 {
	n.updates++
	var stepped int64
	for i, l := range n.layers {
		if l.beginFold(recs, workers) {
			stepped += l.stepFold(n.adam, mix64(n.updates<<8|uint64(i)), alpha, invB, workers)
		}
	}
	return stepped
}

// scanSpan is the least number of stamps worth a scanStamps worker of its
// own (a 128 KiB read, tens of microseconds).
const scanSpan = 1 << 15

// scanStamps collects the ascending indices whose stamp equals epoch into
// dst (reused), parallelized across workers — the column union's list of
// touched input columns. The per-worker
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

// claimChunk is the rows an update-phase worker claims at a time. A row's
// cost follows its contribution count — an output neuron active in one
// element of the batch or in forty — so static halves of the ascending
// rows left one worker idle for a third of the output layer's step. 32
// rows balance the few hundred to few thousand rows of a batch's layer
// while a worker touches the shared cursor only once per tens of
// microseconds of work.
const claimChunk = 32

// claimRows calls step(wk, lo, hi) for chunks of at most claimChunk rows
// of [0, n), claimed in turn from the fold's cursor by up to workers
// goroutines (wk is the claiming worker's index), and returns the total of
// the counts step returns. Each row has a single writer, and which worker
// takes a row changes nothing the row computes.
func (l *Layer) claimRows(workers, n int, step func(wk, lo, hi int) int64) int64 {
	f := &l.fold
	f.applied = growTo(f.applied, max(workers, 1))
	clear(f.applied)
	f.next.Store(0)
	parallelIndexed(workers, (n+claimChunk-1)/claimChunk, func(wk, _, _ int) {
		var done int64
		for {
			lo := int(f.next.Add(claimChunk)) - claimChunk
			if lo >= n {
				break
			}
			done += step(wk, lo, min(lo+claimChunk, n))
		}
		f.applied[wk] = done
	})
	var total int64
	for _, c := range f.applied {
		total += c
	}
	return total
}

// stepRow is the one Adam row step of the update phase, the local fold's
// and ApplyDelta's alike: storage row r's cells cols[k] (column k when
// cols is nil) with raw gradient sums g[k], averaged by invB, over the
// row's bfloat16 moments (optim.Adam.StepCellsBF16), rounded under
// momentKey(seed, r). Cells whose sum is exactly zero are
// left unstepped. Returns the number of cells stepped.
func (l *Layer) stepRow(adam optim.Adam, seed uint64, r int32, cols []int32, g []float32, alpha, invB float32) int64 {
	return int64(adam.StepCellsBF16(l.w[r], l.momentRow(l.mW, r), l.momentRow(l.vW, r), cols, g, momentKey(seed, r), invB, alpha))
}

// momentKey is the dither key (vecmath.Dither) of storage row r's moments
// in the update and layer that seed names (stepRecords): a hash of both, so
// every (update, layer, row, column) cell rounds on its own draw, and a
// pure function of them, so a rank that steps the row from a merged
// delta rounds it exactly as one that stepped the combined batch.
func momentKey(seed uint64, r int32) uint32 {
	return uint32(mix64(seed^uint64(uint32(r))<<32) >> 32)
}

// mix64 is SplitMix64's finalizer: a bijection of x with every output bit
// depending on every input bit.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// momentRow returns storage row r of the bfloat16 moment slab m.
func (l *Layer) momentRow(m []uint16, r int32) []uint16 {
	width := len(l.w[r])
	lo := int(r) * width
	return m[lo : lo+width : lo+width]
}

// prefetchRow hints storage row next's weights and moments into cache while
// the claimed row before it, cur, is stepped. It skips a next row that
// follows cur in storage, which the hardware prefetcher already streams,
// and a column-union step, which touches only scattered cells of a row.
func (l *Layer) prefetchRow(cur, next int32, cols []int32) {
	if next == cur+1 || cols != nil {
		return
	}
	vecmath.Prefetch(l.w[next])
	vecmath.Prefetch(l.momentRow(l.mW, next))
	vecmath.Prefetch(l.momentRow(l.vW, next))
}

// stepBias steps neuron j's bias with raw gradient sum gb averaged by invB,
// unless gb is zero, and returns the number of cells stepped.
func (l *Layer) stepBias(adam optim.Adam, j int32, gb, alpha, invB float32) int64 {
	if gb == 0 {
		return 0
	}
	adam.Step1(&l.b[j], &l.mB[j], &l.vB[j], gb*invB, alpha)
	return 1
}
